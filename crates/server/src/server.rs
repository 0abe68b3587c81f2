//! The serving core: acceptor, per-connection protocol loops, and
//! work-conserving wave execution.
//!
//! Thread structure (all plain std threads, all joined on shutdown):
//!
//! ```text
//! acceptor ──spawns──▶ conn threads (one per client, protocol loop)
//!                         │  submit Job (bounded queue, shed on full)
//!                         ▼
//!               no wave in flight?  ── yes ──▶ lead: run one wave on the pool,
//!                         │                    offer own reply to the socket,
//!                         no                   promote the owner of the next
//!                         ▼                    queued job, answer its followers
//!               follow: block until answered or promoted
//! ```
//!
//! There is no batcher thread and no linger timer. A connection thread
//! decodes a frame, validates it, and submits a `Job` to the
//! [`RequestQueue`]. On an idle server it becomes the leader at once, so
//! the request goes decode → search → encode → write on that one thread
//! with no wake-up in between. While a wave runs, arriving jobs queue up;
//! the retiring leader promotes the owner of the front job, which takes up
//! to `max_batch` queued queries as the next wave. Waves therefore fill by
//! accumulation — the busier the pool, the fuller the wave — and run one
//! at a time in FIFO order. Each wave fans its flattened queries out on
//! the shared [`ThreadPool`], one [`IvfadcIndex::search`] call per query
//! with the *remaining* deadline (arrival-to-now already spent in the
//! queue counts against the budget): one wave of table computations per
//! batch instead of one per round-trip.
//!
//! Before a leader passes the lead on, it encodes its own reply and offers
//! it to the socket once, *without blocking* ([`RequestQueue::submit`]
//! says why that comes first). A reply the socket does not take whole is
//! finished after the lead has passed on, so a slow reader stalls its own
//! connection thread and nobody else.
//!
//! Shutdown (SIGTERM, ctrl-c, or [`ServerHandle::trigger_shutdown`]):
//! the acceptor stops admitting connections, the queue closes (new
//! submissions get a typed shutting-down error), the leader chain runs
//! until everything queued is answered, connection threads finish their
//! in-flight round trip and exit at the next frame boundary, and every
//! thread is joined.

use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, HealthInfo, QueryAnswer, Request, Response,
};
use crate::queue::{PushError, RequestQueue, Seat};
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

static CONNECTIONS_TOTAL: Counter = Counter::new(
    "pqfs_server_connections_total",
    "Client connections accepted",
);
static CONNECTIONS_ACTIVE: Gauge = Gauge::new(
    "pqfs_server_connections_active",
    "Client connections currently open",
);
static REQ_QUERY: Counter = Counter::labeled(
    "pqfs_server_requests_total",
    "Requests received, by frame type",
    "type",
    "query",
);
static REQ_BATCH: Counter = Counter::labeled(
    "pqfs_server_requests_total",
    "Requests received, by frame type",
    "type",
    "batch",
);
static REQ_HEALTH: Counter = Counter::labeled(
    "pqfs_server_requests_total",
    "Requests received, by frame type",
    "type",
    "health",
);
static REQ_STATS: Counter = Counter::labeled(
    "pqfs_server_requests_total",
    "Requests received, by frame type",
    "type",
    "stats",
);
static SHED_TOTAL: Counter = Counter::new(
    "pqfs_server_shed_total",
    "Requests shed by admission control (queue full)",
);
static PROTO_ERRORS: Counter = Counter::new(
    "pqfs_server_protocol_errors_total",
    "Connections dropped on malformed or corrupted frames",
);
static ACCEPT_ERRORS: Counter = Counter::new(
    "pqfs_server_accept_errors_total",
    "Connections dropped at accept time",
);
static BATCHES_TOTAL: Counter = Counter::new(
    "pqfs_server_batches_total",
    "Waves (coalesced batches) executed",
);
static BATCH_QUERIES: Histogram = Histogram::new(
    "pqfs_server_batch_queries",
    "Queries per wave (count, not ns)",
);
static QUEUE_DEPTH_HWM: Gauge = Gauge::new(
    "pqfs_server_queue_depth_hwm",
    "High-water mark of the admission queue depth",
);
static QUEUE_WAIT_NS: Histogram = Histogram::new(
    "pqfs_server_queue_wait_ns",
    "Time requests spent queued before their wave started",
);
static EXECUTE_NS: Histogram = Histogram::new(
    "pqfs_server_execute_ns",
    "Per request: its wave's start to answers ready",
);
static WRITE_NS: Histogram = Histogram::new(
    "pqfs_server_write_ns",
    "Per request: response encode and socket flush",
);
static REQUEST_NS: Histogram = Histogram::new(
    "pqfs_server_request_ns",
    "Request latency, frame decoded to response flushed",
);

/// Connections currently open, mirrored into [`CONNECTIONS_ACTIVE`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Server tuning knobs. `Default` values suit tests and small fixtures;
/// the CLI exposes the interesting ones as flags.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Backend used when a request leaves the backend name empty.
    pub default_backend: SearchBackend,
    /// Wave weight cap: a new leader takes queued requests up to this
    /// many queries (a batch-query frame weighs its query count, and one
    /// heavier than the cap ships alone).
    pub max_batch: usize,
    /// Admission queue capacity, in *requests* (frames, not queries).
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
            default_backend: SearchBackend::FastScan,
            max_batch: 32,
            queue_capacity: 256,
        }
    }
}

/// One admitted request: queries, the search parameters resolved and
/// validated at admission time (so a wave never re-parses), arrival time.
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
    queue: RequestQueue<Job, Response>,
    shutdown: AtomicBool,
    /// Each query unit of a wave runs its probes inline; parallelism
    /// comes from the wave fan-out, not from nesting pools.
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
            queue: RequestQueue::new(config.queue_capacity, config.max_batch),
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

    /// Current admission-queue depth (for stats and tests).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Begins graceful shutdown without blocking: stop admitting, close
    /// the queue. Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
    }

    /// True once shutdown has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Triggers shutdown and joins every server thread: in-flight
    /// requests are answered, queued work drains (on the connection
    /// threads that own it), connections close at their next frame
    /// boundary.
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

/// A connection's outgoing side: the socket and the response frame on its
/// way out, sent in two steps so the first can run while the thread still
/// leads the queue.
struct ReplyWriter {
    socket: FaultWrite<TcpStream>,
    /// The encoded frame (reused across responses) and how much of it the
    /// socket has taken.
    frame: Vec<u8>,
    sent: usize,
    /// When the current response was handed over for writing.
    began: Instant,
}

impl ReplyWriter {
    fn new(stream: TcpStream) -> Self {
        ReplyWriter {
            socket: FaultWrite::new(stream, "server.conn.write"),
            frame: Vec::new(),
            sent: 0,
            began: Instant::now(),
        }
    }

    /// Encodes `response` and offers the frame to the socket once without
    /// blocking: the kernel takes what its send buffer has room for —
    /// every ordinary response whole — and [`ReplyWriter::finish`] writes
    /// the rest. Never waits on the peer, so a leader may call it.
    fn begin(&mut self, response: &Response) -> io::Result<()> {
        self.began = Instant::now();
        let frame = response.to_frame();
        self.frame.clear();
        self.sent = 0;
        write_frame(&mut self.frame, frame.kind, &frame.payload)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
        // `O_NONBLOCK` is shared with the read half (one socket, two
        // descriptors); this thread owns both and reads only between
        // responses.
        self.socket.get_ref().set_nonblocking(true)?;
        let offered = self.socket.write(&self.frame);
        self.socket.get_ref().set_nonblocking(false)?;
        match offered {
            Ok(n) => self.sent = n,
            Err(e) if is_wait(e.kind()) || e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Blocks until the peer has taken the rest of the frame.
    fn finish(&mut self) -> io::Result<()> {
        self.socket.write_all(&self.frame[self.sent..])?;
        self.sent = self.frame.len();
        Ok(())
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
    let mut writer = ReplyWriter::new(stream);
    let seat = Seat::new();

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
            send_error(
                &mut writer,
                ErrorCode::BadFrame,
                "injected decode fault".to_string(),
            );
            return;
        }

        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                PROTO_ERRORS.inc();
                // Best effort: the stream cannot be resynchronized after
                // a framing error, so describe it and hang up.
                send_error(&mut writer, ErrorCode::BadFrame, e.to_string());
                return;
            }
        };
        let started = Instant::now();
        let Ok(close) = handle_frame(&frame, shared, &seat, &mut writer) else {
            return;
        };
        if writer.finish().is_err() {
            return;
        }
        let flushed = Instant::now();
        WRITE_NS.observe(flushed - writer.began);
        REQUEST_NS.observe(flushed - started);
        if close {
            return;
        }
    }
}

/// Writes a typed error frame, ignoring failures (the connection is being
/// dropped anyway).
fn send_error(writer: &mut ReplyWriter, code: ErrorCode, message: String) {
    if writer.begin(&Response::Error { code, message }).is_ok() {
        let _ = writer.finish();
    }
}

/// Decodes, validates, and executes one request frame, and begins writing
/// its response (the caller finishes it). Returns whether the connection
/// must close afterwards.
///
/// # Errors
///
/// The socket's error, when it refused the response.
fn handle_frame(
    frame: &Frame,
    shared: &Arc<Shared>,
    seat: &Arc<Seat<Response>>,
    writer: &mut ReplyWriter,
) -> io::Result<bool> {
    let request = match Request::from_frame(frame) {
        Ok(req) => req,
        Err(e) => {
            PROTO_ERRORS.inc();
            writer.begin(&Response::Error {
                code: ErrorCode::BadFrame,
                message: e.to_string(),
            })?;
            return Ok(true);
        }
    };
    match request {
        Request::Health => {
            REQ_HEALTH.inc();
            let index = &shared.index;
            writer.begin(&Response::Health(HealthInfo {
                vectors: index.len() as u64,
                partitions: index.num_partitions() as u32,
                dim: index.dim() as u32,
            }))?;
        }
        Request::Stats => {
            REQ_STATS.inc();
            writer.begin(&Response::Stats(pqfs_obs::global_json_snapshot()))?;
        }
        Request::Query(req) => {
            REQ_QUERY.inc();
            submit(req, false, shared, seat, writer)?;
        }
        Request::Batch(req) => {
            REQ_BATCH.inc();
            submit(req, true, shared, seat, writer)?;
        }
    }
    Ok(false)
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
    // Refused here, not in the wave: one bad query fails only its request.
    if let Some(at) = req.queries.iter().position(|v| !v.is_finite()) {
        let (q, c, v) = (at / dim, at % dim, req.queries[at]);
        let message = format!("query {q} coordinate {c} is {v}, not a finite number");
        return Err((ErrorCode::BadRequest, message));
    }
    let backend = if req.params.backend.is_empty() {
        shared.config.default_backend
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

/// Admits one query/batch request into the bounded queue and begins
/// writing its answer — computed on this thread if it leads the wave,
/// handed over by the leading thread otherwise. This is where overload
/// turns into a typed shed response instead of unbounded queueing.
fn submit(
    req: crate::proto::QueryRequest,
    batch: bool,
    shared: &Arc<Shared>,
    seat: &Arc<Seat<Response>>,
    writer: &mut ReplyWriter,
) -> io::Result<()> {
    let request = match resolve(&req, shared) {
        Ok(r) => r,
        Err((code, message)) => return writer.begin(&Response::Error { code, message }),
    };
    let job = Job {
        dim: req.dim as usize,
        queries: req.queries,
        batch,
        request,
        arrival: Instant::now(),
    };
    let weight = job.count();
    let admitted = shared.queue.submit(
        seat,
        job,
        weight,
        |jobs| execute_batch(jobs, shared),
        |answer| {
            writer.begin(&answer.unwrap_or_else(|| Response::Error {
                code: ErrorCode::SearchFailed,
                message: "the wave carrying this request was abandoned".to_string(),
            }))
        },
    );
    match admitted {
        Ok(admitted) => {
            QUEUE_DEPTH_HWM.record_max(admitted.depth as u64);
            admitted.reply
        }
        Err(PushError::Full { capacity, depth }) => {
            SHED_TOTAL.inc();
            writer.begin(&Response::Overloaded {
                capacity: capacity as u32,
                depth: depth as u32,
            })
        }
        Err(PushError::Closed) => writer.begin(&Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining for shutdown".to_string(),
        }),
    }
}

/// Executes every query of every job as one parallel wave on the shared
/// pool and returns one response per job, in order.
fn execute_batch(jobs: &[Job], shared: &Shared) -> Vec<Response> {
    let wave_start = Instant::now();
    let total_queries: usize = jobs.iter().map(Job::count).sum();
    BATCHES_TOTAL.inc();
    BATCH_QUERIES.observe_ns(total_queries as u64);
    for job in jobs {
        QUEUE_WAIT_NS.observe(wave_start.saturating_duration_since(job.arrival));
    }
    let responses = run_wave(jobs, total_queries, shared);
    let executed = wave_start.elapsed();
    for _ in jobs {
        EXECUTE_NS.observe(executed);
    }
    responses
}

fn run_wave(jobs: &[Job], total_queries: usize, shared: &Shared) -> Vec<Response> {
    if let Err(e) = pqfs_fault::check("server.batch.execute") {
        return jobs
            .iter()
            .map(|_| Response::Error {
                code: ErrorCode::SearchFailed,
                message: e.to_string(),
            })
            .collect();
    }

    // Flatten to (job, query-within-job) units so one slow batch frame
    // does not serialize the wave.
    let mut units: Vec<(usize, usize)> = Vec::with_capacity(total_queries);
    for (j, job) in jobs.iter().enumerate() {
        for q in 0..job.count() {
            units.push((j, q));
        }
    }

    let index = &shared.index;
    let inline = &shared.inline;
    let answers = ThreadPool::global().parallel_map(&units, |_, &(j, q)| {
        let job = &jobs[j];
        let query = &job.queries[q * job.dim..(q + 1) * job.dim];
        // Queue wait counts against the request deadline: what is left
        // of the budget is what the search may spend.
        let request = SearchRequest {
            deadline: job
                .request
                .deadline
                .map(|d| d.saturating_sub(job.arrival.elapsed())),
            ..job.request
        };
        index
            .search(query, &request, inline, None)
            .map(|outcome| QueryAnswer {
                probes_ok: outcome.health.probes_ok as u32,
                probes_failed: outcome.health.probes_failed as u32,
                probes_skipped: outcome.health.probes_skipped as u32,
                neighbors: outcome.neighbors,
            })
            .map_err(|e| e.to_string())
    });

    // Regroup per job, moving each answer into its response. Any failed
    // query fails its whole request — partial batch answers would be
    // ambiguous on the wire.
    let mut answers = answers.into_iter();
    jobs.iter()
        .map(|job| {
            let mut oks = Vec::with_capacity(job.count());
            let mut failed = None;
            // Drain the job's whole share even after a failure, so the
            // next job starts at its own answers.
            for answer in answers.by_ref().take(job.count()) {
                match answer {
                    Ok(answer) => oks.push(answer),
                    Err(message) => failed = failed.or(Some(message)),
                }
            }
            match failed {
                Some(message) => Response::Error {
                    code: ErrorCode::SearchFailed,
                    message,
                },
                None if job.batch => Response::Batch(oks),
                None => match oks.into_iter().next() {
                    Some(answer) => Response::Query(answer),
                    None => Response::Error {
                        code: ErrorCode::SearchFailed,
                        message: "query produced no answer".to_string(),
                    },
                },
            }
        })
        .collect()
}

//! The load generators: one closed library loop, one open serving loop and
//! one closed batch serving loop. Each warms up, then measures one window.

use crate::calibrate::{measure, Width, LOAD_SLICE};
use crate::fixture::{ids, Data, Expected};
use crate::spec::{
    Driver, Workload, BACKEND, BATCH_FRAME, DIM, KEEP, LATE_AFTER_MS, OPEN_LOOP_RATE, QUERY_POOL,
    SEGMENTS,
};
use crate::stats::{summarize, Loop, Paced, Readings, Sample, Schedule, WindowSummary};
use crate::suite::System;
use crate::trace::{Span, Tracer};
use pqfs_ivf::IvfadcIndex;
use pqfs_server::{Client, QueryAnswer, QueryParams, Response};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Warm-up and measured length of one window.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub warmup: Duration,
    pub window: Duration,
}

/// What one window produced.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    /// Host speed measured in the pauses of a closed loop, as (time from the
    /// window's start, speed). The open loop has none and is not scaled;
    /// README.md, "Times are scaled", says what was tried.
    pub speeds: Vec<(Duration, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Generator lag of the open loop (empty for closed loops).
    pub paced: Vec<Paced>,
    pub spans: Vec<Span>,
}

impl Window {
    /// A window in which the one thing attempted, reaching the server, failed.
    fn unreachable() -> Window {
        Window {
            attempted: 1,
            failed: 1,
            ..Window::default()
        }
    }

    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.speeds.extend(other.speeds);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.paced.extend(other.paced);
        self.spans.extend(other.spans);
    }

    /// The window's rates, raw and scaled by the host speed measured in it.
    pub fn summary(&self, w: &Workload, timing: Timing) -> WindowSummary {
        let (kind, trust) = match w.driver {
            Driver::Library => (Loop::Closed { lanes: 1 }, Readings::PerSegment),
            // The batch loop's readings come from a client thread and the
            // pool, not from the server's own threads.
            Driver::ServeBatchClosedLoop => {
                let lanes = connections();
                (Loop::Closed { lanes }, Readings::WholeRun)
            }
            Driver::ServeOpenLoop => (Loop::Open, Readings::PerSegment),
        };
        let (window, speeds) = (timing.window, &self.speeds);
        summarize(&self.samples, window, SEGMENTS, kind, speeds, trust)
    }

    /// Share of requests sent more than `LATE_AFTER_MS` after they were due.
    pub fn late_share(&self) -> f64 {
        let late = self
            .paced
            .iter()
            .filter(|p| p.lag().as_secs_f64() * 1e3 > LATE_AFTER_MS)
            .count();
        late as f64 / self.paced.len().max(1) as f64
    }

    pub fn max_lag_ms(&self) -> f64 {
        self.paced
            .iter()
            .map(|p| p.lag().as_secs_f64() * 1e3)
            .fold(0.0, f64::max)
    }
}

pub fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn query_params(w: &Workload) -> QueryParams {
    QueryParams {
        topk: w.topk as u32,
        nprobe: w.nprobe as u32,
        keep: KEEP,
        deadline_us: 0,
        backend: BACKEND.name().to_string(),
    }
}

fn answer_is(answer: &QueryAnswer, expected: &Expected, query: usize) -> bool {
    !answer.degraded() && answer.neighbors == expected.answers[query]
}

/// Makes one operation's public call, inside an `op` span with the call as
/// its child when the window is traced.
fn operation<R>(
    tracer: &mut Option<Tracer>,
    query: usize,
    layer: &'static str,
    name: &'static str,
    call: impl FnOnce() -> R,
) -> R {
    let Some(t) = tracer else {
        return call();
    };
    let root = t.begin(0, query as u64, "loadgen", "op");
    let (result, _) = t.call(root, query as u64, layer, name, call);
    t.end(root);
    result
}

/// Runs the workload's load generator against the system's index (library)
/// or its server, recording spans timed from `trace_from` when it is set.
pub fn run(
    w: &Workload,
    system: &System,
    data: &Data,
    expected: &Expected,
    timing: Timing,
    trace_from: Option<Instant>,
) -> Window {
    let tracer = |thread: usize| trace_from.map(|epoch| Tracer::new(epoch, thread));
    match (w.driver, system.addr()) {
        (Driver::Library, _) => library_loop(w, &system.index, data, expected, timing, tracer(0)),
        (driver, Some(addr)) => {
            let conns = connections();
            // Connect before the clock starts; a refused connection fails
            // the run through the attempted/failed count.
            let clients: Vec<Option<Client>> =
                (0..conns).map(|_| Client::connect(addr).ok()).collect();
            let start = Instant::now();
            let mut total = Window::default();
            let pause = &Pause::default();
            std::thread::scope(|scope| {
                let handles: Vec<_> = clients
                    .into_iter()
                    .enumerate()
                    .map(|(c, client)| {
                        let tracer = tracer(c);
                        scope.spawn(move || {
                            let Some(client) = client else {
                                return Window::unreachable();
                            };
                            let lane = Lane {
                                conn: c,
                                conns,
                                start,
                                timing,
                            };
                            if driver == Driver::ServeOpenLoop {
                                open_loop(w, client, lane, data, expected, tracer)
                            } else {
                                batch_loop(w, client, lane, pause, data, expected, tracer)
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok(part) => total.absorb(part),
                        Err(_) => total.failed += 1,
                    }
                }
            });
            total
        }
        (_, None) => Window::unreachable(),
    }
}

fn library_loop(
    w: &Workload,
    index: &IvfadcIndex,
    data: &Data,
    expected: &Expected,
    timing: Timing,
    mut tracer: Option<Tracer>,
) -> Window {
    let mut out = Window::default();
    let start = Instant::now();
    let (warm_end, end) = (timing.warmup, timing.warmup + timing.window);
    // A multi-probe query fans out over the pool, so the pool times the
    // reference loop; a single probe runs on this thread alone.
    let width = if w.nprobe > 1 {
        Width::Pool
    } else {
        Width::Caller
    };
    let mut next_pause = LOAD_SLICE;
    for k in 0u64.. {
        let qi = k as usize % QUERY_POOL;
        let query = data.query(qi);
        let mut sent = start.elapsed();
        if sent >= end {
            break;
        }
        if sent >= next_pause {
            let speed = measure(width);
            if sent >= warm_end {
                out.speeds.push((sent - warm_end, speed));
            }
            sent = start.elapsed();
            next_pause = sent + LOAD_SLICE;
        }
        let result = operation(&mut tracer, qi, "ivf", "search_probes", || {
            index.search_probes(query, w.topk, BACKEND, KEEP, w.nprobe)
        });
        let done = start.elapsed();
        if done < warm_end || done >= end {
            continue;
        }
        let ok = match &result {
            Ok(outcome) => expected
                .naive_ids
                .get(qi)
                .map_or(!outcome.neighbors.is_empty(), |n| {
                    ids(&outcome.neighbors) == *n
                }),
            Err(_) => false,
        };
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.samples.push(Sample {
            at: done - warm_end,
            done: done - warm_end,
            latency: done - sent,
            queries: 1,
        });
    }
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// One connection's place in a serving workload.
#[derive(Clone, Copy)]
struct Lane {
    conn: usize,
    conns: usize,
    start: Instant,
    timing: Timing,
}

fn open_loop(
    w: &Workload,
    mut client: Client,
    lane: Lane,
    data: &Data,
    expected: &Expected,
    mut tracer: Option<Tracer>,
) -> Window {
    let mut out = Window::default();
    let schedule = Schedule {
        rate: OPEN_LOOP_RATE,
        connections: lane.conns,
    };
    let (warm_end, end) = (lane.timing.warmup, lane.timing.warmup + lane.timing.window);
    let params = query_params(w);
    for k in 0u64.. {
        let due = schedule.due(lane.conn, k);
        if due >= end {
            break;
        }
        let qi = (k as usize * lane.conns + lane.conn) % QUERY_POOL;
        std::thread::sleep(due.saturating_sub(lane.start.elapsed()));
        let sent = lane.start.elapsed();
        let response = operation(&mut tracer, qi, "server", "client.query", || {
            client.query(data.query(qi), params.clone())
        });
        let done = lane.start.elapsed();
        if due < warm_end {
            continue;
        }
        let ok = matches!(&response, Ok(Response::Query(a)) if answer_is(a, expected, qi));
        let paced = Paced { due, sent, done };
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.samples.push(Sample {
            at: due - warm_end,
            done: done - warm_end,
            latency: paced.latency(),
            queries: 1,
        });
        out.paced.push(paced);
    }
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// How the connections of the closed serving loop pause together: the first
/// one asks, waits until no frame is in flight, measures the host on the
/// pool (idle now, like the server), and lets the others go on.
#[derive(Default)]
struct Pause {
    asked: AtomicBool,
    in_flight: AtomicUsize,
}

impl Pause {
    const POLL: Duration = Duration::from_micros(100);

    /// The leader's pause. SeqCst throughout: a follower's `in_flight` must
    /// be seen to rise before it reads `asked`, or a frame could start under
    /// a measurement.
    fn measure(&self) -> f64 {
        self.asked.store(true, Ordering::SeqCst);
        while self.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Self::POLL);
        }
        let speed = measure(Width::Pool);
        self.asked.store(false, Ordering::SeqCst);
        speed
    }

    /// A follower announces its next frame, waiting out a pause first.
    fn frame_begins(&self) {
        loop {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if !self.asked.load(Ordering::SeqCst) {
                return;
            }
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            while self.asked.load(Ordering::SeqCst) {
                std::thread::sleep(Self::POLL);
            }
        }
    }

    fn frame_ends(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn batch_loop(
    w: &Workload,
    mut client: Client,
    lane: Lane,
    pause: &Pause,
    data: &Data,
    expected: &Expected,
    mut tracer: Option<Tracer>,
) -> Window {
    let mut out = Window::default();
    let (warm_end, end) = (lane.timing.warmup, lane.timing.warmup + lane.timing.window);
    let params = query_params(w);
    let frames = QUERY_POOL / BATCH_FRAME;
    // The first connection leads the pauses; the others follow.
    let leader = lane.conn == 0;
    let mut next_pause = LOAD_SLICE;
    for k in 0usize.. {
        let first = (k * lane.conns + lane.conn) % frames * BATCH_FRAME;
        let queries = &data.queries[first * DIM..(first + BATCH_FRAME) * DIM];
        let now = lane.start.elapsed();
        if now >= end {
            break;
        }
        if !leader {
            pause.frame_begins();
        } else if now >= next_pause {
            let speed = pause.measure();
            if now >= warm_end {
                out.speeds.push((now - warm_end, speed));
            }
            next_pause = lane.start.elapsed() + LOAD_SLICE;
        }
        let sent = lane.start.elapsed();
        let response = operation(&mut tracer, first, "server", "client.batch", || {
            client.batch(queries, DIM as u32, params.clone())
        });
        let done = lane.start.elapsed();
        if !leader {
            pause.frame_ends();
        }
        if done < warm_end || done >= end {
            continue;
        }
        let ok = matches!(&response, Ok(Response::Batch(answers))
            if answers.len() == BATCH_FRAME
                && answers.iter().enumerate().all(|(i, a)| answer_is(a, expected, first + i)));
        out.attempted += 1;
        out.failed += u64::from(!ok);
        out.samples.push(Sample {
            at: done - warm_end,
            done: done - warm_end,
            latency: done - sent,
            queries: BATCH_FRAME as u32,
        });
    }
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

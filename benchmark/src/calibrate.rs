//! Host speed, measured while the benchmark measures.
//!
//! The reference host is a shared two-core microVM whose speed swings by up
//! to 2× within minutes and by ±20 % within a second, each core on its own;
//! raw times measured minutes apart cannot be compared. The benchmark
//! therefore times a fixed reference loop (integer and floating-point work
//! over cache-resident buffers; a later change must not edit it) next to
//! what it measures: a closed loop pauses every 45 ms and runs one pass on
//! the threads that carry its load ([`measure`]); set-up, which cannot be
//! paused, is watched by a [`Sampler`] thread; the open loop, whose round
//! trip is a timer and thread hand-offs rather than computing, is left as
//! measured. A host's speed is the loop's passes per second over
//! [`REFERENCE_PASSES_PER_S`], and times are scaled to a host of speed 1: a
//! latency is multiplied by the speed measured around it, a closed-loop rate
//! is divided by it. Raw values are printed next to the scaled ones.

use pqfs_pool::ThreadPool;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Passes per second of the reference loop on the reference host (2-core
/// AVX2 Xeon microVM) at its fastest, frozen with the benchmark.
pub const REFERENCE_PASSES_PER_S: f64 = 480.0;
/// Pause between two samples of the [`Sampler`].
const SAMPLE_EVERY: Duration = Duration::from_millis(50);
/// How long a closed loop carries load between two [`measure`] pauses.
pub const LOAD_SLICE: Duration = Duration::from_millis(45);

struct Buffers {
    bytes: Vec<u8>,
    table: [u8; 256],
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Buffers {
    fn new() -> Buffers {
        let mut table = [0u8; 256];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i * 7) as u8;
        }
        Buffers {
            bytes: vec![7u8; 64 * 1024],
            table,
            a: (0..64 * 1024).map(|i| i as f32).collect(),
            b: (0..64 * 1024).map(|i| (i * 3) as f32).collect(),
        }
    }
}

/// Rounds of the reference loop in one pass (~2 ms on the reference host).
const ROUNDS_PER_PASS: usize = 128;
/// Pieces a pool-wide pass is cut into per thread, so that stealing spreads
/// them the way it spreads a wave of queries.
const PIECES_PER_THREAD: usize = 4;

/// `rounds` rounds of the reference loop: byte-wise saturating arithmetic
/// with a table lookup per 32 bytes (the shape of a PQ scan), then a squared
/// distance over two float vectors (the shape of encoding and training).
fn reference_rounds(buffers: &mut Buffers, rounds: usize) -> u64 {
    let mut acc = 0u64;
    for _ in 0..rounds {
        for chunk in buffers.bytes.chunks_exact_mut(32) {
            let mut low = 255u8;
            for b in chunk.iter_mut() {
                *b = b.saturating_add(3).min(250) ^ 1;
                low = low.min(*b);
            }
            acc += u64::from(buffers.table[low as usize]);
        }
        let mut lanes = [0f32; 8];
        for (x, y) in buffers.a.chunks_exact(8).zip(buffers.b.chunks_exact(8)) {
            for i in 0..8 {
                let d = x[i] - y[i];
                lanes[i] += d * d;
            }
        }
        acc += lanes.iter().sum::<f32>() as u64 & 1;
    }
    acc
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::new());
}

fn rounds_on_this_thread(rounds: usize) -> u64 {
    BUFFERS.with(|b| reference_rounds(&mut b.borrow_mut(), rounds))
}

/// Which threads a workload keeps busy, and so which ones time the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// The calling thread alone.
    Caller,
    /// Every participant of the global pool: one pass per thread, cut into
    /// pieces that idle threads steal, like the queries of a wave or the
    /// probes of a query. A slow core takes fewer pieces; it does not hold
    /// the others up.
    Pool,
}

/// The host's speed right now, relative to the reference host: one pass of
/// the reference loop on the calling thread, or one per pool thread.
pub fn measure(width: Width) -> f64 {
    let started = Instant::now();
    match width {
        Width::Caller => {
            std::hint::black_box(rounds_on_this_thread(ROUNDS_PER_PASS));
        }
        Width::Pool => {
            let pool = ThreadPool::global();
            let pieces = vec![(); pool.threads() * PIECES_PER_THREAD];
            std::hint::black_box(pool.parallel_map(&pieces, |_, _| {
                rounds_on_this_thread(ROUNDS_PER_PASS / PIECES_PER_THREAD)
            }));
        }
    }
    1.0 / started.elapsed().as_secs_f64() / REFERENCE_PASSES_PER_S
}

/// Host speed over time, relative to the reference host.
#[derive(Debug, Clone, Default)]
pub struct SpeedTrace {
    /// (when the sample ended, speed) in time order.
    samples: Vec<(Instant, f64)>,
}

impl SpeedTrace {
    /// Mean speed of the samples taken in `[from, to]`; when there is none,
    /// of the whole trace; 1 for an empty trace.
    pub fn between(&self, from: Instant, to: Instant) -> f64 {
        let mean = |speeds: Vec<f64>| {
            (!speeds.is_empty()).then(|| speeds.iter().sum::<f64>() / speeds.len() as f64)
        };
        let inside = |(at, speed): &(Instant, f64)| (*at >= from && *at <= to).then_some(*speed);
        mean(self.samples.iter().filter_map(inside).collect())
            .or_else(|| mean(self.samples.iter().map(|s| s.1).collect()))
            .unwrap_or(1.0)
    }

    #[cfg(test)]
    pub fn from_samples(samples: Vec<(Instant, f64)>) -> SpeedTrace {
        SpeedTrace { samples }
    }
}

/// The sampler thread; [`stop`](Sampler::stop) joins it and hands back
/// what it saw.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<SpeedTrace>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut trace = SpeedTrace::default();
            // SeqCst: the flag publishes nothing but itself, and this is
            // not a hot path.
            while !flag.load(Ordering::SeqCst) {
                let speed = measure(Width::Caller);
                trace.samples.push((Instant::now(), speed));
                std::thread::sleep(SAMPLE_EVERY);
            }
            trace
        });
        Sampler { stop, thread }
    }

    pub fn stop(self) -> SpeedTrace {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_mean_of_the_samples_in_the_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let trace = SpeedTrace::from_samples(vec![(at(10), 1.0), (at(60), 0.5), (at(110), 0.7)]);
        assert_eq!(trace.between(at(0), at(70)), 0.75);
        assert_eq!(trace.between(at(100), at(200)), 0.7);
        // No sample inside: the whole trace stands in.
        assert!((trace.between(at(300), at(400)) - 2.2 / 3.0).abs() < 1e-12);
        assert_eq!(SpeedTrace::default().between(at(0), at(1)), 1.0);
    }

    #[test]
    fn measuring_gives_a_positive_speed_on_one_thread_and_on_the_pool() {
        for width in [Width::Caller, Width::Pool] {
            let speed = measure(width);
            assert!(speed > 0.0 && speed.is_finite(), "{width:?}: {speed}");
        }
    }

    #[test]
    fn the_sampler_reports_positive_speeds_and_stops() {
        let started = Instant::now();
        let sampler = Sampler::start();
        std::thread::sleep(Duration::from_millis(120));
        let trace = sampler.stop();
        assert!(trace.samples.len() >= 2);
        assert!(trace.samples.iter().all(|(_, v)| *v > 0.0 && v.is_finite()));
        assert!(trace.between(started, Instant::now()) > 0.0);
    }
}

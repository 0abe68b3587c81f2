//! Stress for the leader/follower queue on its own, with waves that fan
//! out on the shared pool the way the server's do (CI runs this file under
//! `PQFS_THREADS=1/2/8`): every admitted job is answered exactly once with
//! its own answer, two waves never overlap (a leader's reply included: the
//! next wave starts only after it), leadership is never dropped
//! while work is queued (a lost wake-up would strand a producer, which the
//! watchdog turns into a failure instead of a hang), and closing the queue
//! still answers everything admitted before it.
//!
//! The interleavings themselves are pinned one by one in the unit tests
//! of `queue.rs`; this file is the volume run over the same invariants.

use pqfs_pool::ThreadPool;
use pqfs_server::{PushError, RequestQueue, Seat};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

const PRODUCERS: usize = 12;
const JOBS_PER_PRODUCER: usize = 400;
const WATCHDOG: Duration = Duration::from_secs(120);

/// What the queue told one producer, summed over its jobs.
#[derive(Default)]
struct Tally {
    answered: usize,
    shed: usize,
    closed: usize,
}

thread_local! {
    /// This producer led the wave whose answer it is about to receive.
    static LED: Cell<bool> = const { Cell::new(false) };
}

struct Harness {
    queue: RequestQueue<u64, u64>,
    waves_in_flight: AtomicUsize,
    overlapped: AtomicBool,
    waves: AtomicUsize,
    /// The wave with this ordinal closes the queue (0: never).
    close_at_wave: usize,
    jobs_in_waves: AtomicUsize,
    widest: AtomicUsize,
}

impl Harness {
    fn new(capacity: usize, max_weight: usize, close_at_wave: usize) -> Arc<Harness> {
        Arc::new(Harness {
            queue: RequestQueue::new(capacity, max_weight),
            waves_in_flight: AtomicUsize::new(0),
            overlapped: AtomicBool::new(false),
            waves: AtomicUsize::new(0),
            close_at_wave,
            jobs_in_waves: AtomicUsize::new(0),
            widest: AtomicUsize::new(0),
        })
    }

    /// One wave: squares its items on the global pool. It stays in flight
    /// until its leader has replied, because the lead is held that long.
    fn run_wave(&self, items: &[u64]) -> Vec<u64> {
        LED.with(|led| led.set(true));
        if self.waves_in_flight.fetch_add(1, Ordering::SeqCst) != 0 {
            self.overlapped.store(true, Ordering::SeqCst);
        }
        if self.waves.fetch_add(1, Ordering::SeqCst) + 1 == self.close_at_wave {
            self.queue.close();
        }
        self.jobs_in_waves.fetch_add(items.len(), Ordering::SeqCst);
        self.widest.fetch_max(items.len(), Ordering::SeqCst);
        ThreadPool::global().parallel_map(items, |_, &item| item * item)
    }

    /// A producer's reply: passes the answer through. A leader's reply is
    /// where its wave stops counting as in flight.
    fn reply(&self, answer: Option<u64>) -> Option<u64> {
        if LED.with(|led| led.replace(false)) {
            self.waves_in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        answer
    }

    /// Runs `PRODUCERS` threads of `JOBS_PER_PRODUCER` submissions each,
    /// released together, and returns their tallies — or panics if any is
    /// still blocked when the watchdog expires.
    fn run_producers(self: &Arc<Self>) -> Vec<Tally> {
        let start = Arc::new(Barrier::new(PRODUCERS));
        let (done_tx, done_rx) = mpsc::channel();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let harness = Arc::clone(self);
                let start = Arc::clone(&start);
                let done_tx = done_tx.clone();
                thread::spawn(move || {
                    let seat = Seat::new();
                    let mut tally = Tally::default();
                    start.wait();
                    for j in 0..JOBS_PER_PRODUCER {
                        let item = (p * JOBS_PER_PRODUCER + j) as u64;
                        match harness.queue.submit(
                            &seat,
                            item,
                            1,
                            |items| harness.run_wave(items),
                            |answer| harness.reply(answer),
                        ) {
                            Ok(admitted) => {
                                assert_eq!(
                                    admitted.reply,
                                    Some(item * item),
                                    "job {item} got somebody else's answer"
                                );
                                tally.answered += 1;
                            }
                            Err(PushError::Full { .. }) => tally.shed += 1,
                            Err(PushError::Closed) => tally.closed += 1,
                        }
                    }
                    done_tx.send(()).expect("main thread listens");
                    tally
                })
            })
            .collect();
        drop(done_tx);
        for _ in 0..PRODUCERS {
            done_rx
                .recv_timeout(WATCHDOG)
                .expect("a producer is stranded: leadership was lost with work queued");
        }
        producers
            .into_iter()
            .map(|p| p.join().expect("producer thread"))
            .collect()
    }
}

#[test]
fn every_job_is_answered_once_and_waves_never_overlap() {
    // Capacity above the producer count: nothing can be shed, so every
    // submission must come back answered.
    let harness = Harness::new(PRODUCERS, 4, 0);
    let tallies = harness.run_producers();
    let answered: usize = tallies.iter().map(|t| t.answered).sum();
    assert_eq!(answered, PRODUCERS * JOBS_PER_PRODUCER);
    assert!(tallies.iter().all(|t| t.shed == 0 && t.closed == 0));
    assert!(!harness.overlapped.load(Ordering::SeqCst), "two leaders");
    assert_eq!(
        harness.jobs_in_waves.load(Ordering::SeqCst),
        answered,
        "each job ran in exactly one wave"
    );
    assert!(harness.widest.load(Ordering::SeqCst) <= 4, "weight cap");
    assert_eq!(harness.queue.depth(), 0);
    assert_eq!(harness.waves_in_flight.load(Ordering::SeqCst), 0);
}

#[test]
fn a_small_queue_sheds_and_still_answers_the_rest() {
    let harness = Harness::new(2, 2, 0);
    let tallies = harness.run_producers();
    let answered: usize = tallies.iter().map(|t| t.answered).sum();
    let shed: usize = tallies.iter().map(|t| t.shed).sum();
    assert_eq!(answered + shed, PRODUCERS * JOBS_PER_PRODUCER);
    assert!(answered >= JOBS_PER_PRODUCER, "work still gets done");
    assert!(!harness.overlapped.load(Ordering::SeqCst), "two leaders");
    assert_eq!(harness.jobs_in_waves.load(Ordering::SeqCst), answered);
    assert_eq!(harness.queue.depth(), 0);
}

#[test]
fn close_mid_stream_answers_everything_admitted() {
    // The 50th wave closes the queue from inside, with followers queued
    // behind it and most of the stream still to come.
    let harness = Harness::new(PRODUCERS, 4, 50);
    let tallies = harness.run_producers();
    let answered: usize = tallies.iter().map(|t| t.answered).sum();
    let closed: usize = tallies.iter().map(|t| t.closed).sum();
    assert_eq!(answered + closed, PRODUCERS * JOBS_PER_PRODUCER);
    assert!(closed > 0, "the close landed mid-stream");
    assert_eq!(
        harness.jobs_in_waves.load(Ordering::SeqCst),
        answered,
        "every job admitted before the close ran in a wave"
    );
    assert!(!harness.overlapped.load(Ordering::SeqCst), "two leaders");
    assert_eq!(harness.queue.depth(), 0);
}

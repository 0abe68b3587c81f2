//! Bounded admission queue with leader/follower wave combining.
//!
//! There is no consumer thread. A submitting thread that finds no wave in
//! flight becomes the **leader**: it takes the front of the queue (its own
//! item first, then whatever else is queued, up to the weight cap), runs
//! that one wave, and hands each answer to the thread that owns it. A
//! thread that finds a wave in flight leaves its item queued and blocks on
//! its [`Seat`] as a **follower** until it is either answered by somebody
//! else's wave or promoted to lead the next one. A retiring leader
//! promotes the owner of the new front item, so the queue is never
//! non-empty without a leader and waves run strictly one at a time, in
//! FIFO order. Leadership never leaves this module: callers hand
//! [`RequestQueue::submit`] two closures and get their answer back.
//!
//! Batching falls out of that structure instead of a timer: a request
//! reaching an idle queue runs at once on its own thread, and requests
//! that arrive while a wave runs are already queued — one wave's worth of
//! them — when it ends.
//!
//! The admission contract is unchanged: [`RequestQueue::submit`] **never
//! waits for room**. A full queue rejects immediately with the observed
//! depth so the caller can send a typed overload response — under
//! overload the server sheds, it does not stack latency. Closing the
//! queue rejects new work; everything already queued is still answered,
//! because every queued item has a leader ahead of it.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the request must be shed.
    Full {
        /// Configured capacity.
        capacity: usize,
        /// Depth observed at rejection (== capacity).
        depth: usize,
    },
    /// The queue was closed for shutdown; no new work is admitted.
    Closed,
}

/// An admitted item's outcome.
pub struct Admitted<A> {
    /// Queue depth right after admission, this item included.
    pub depth: usize,
    /// What the caller's `reply` closure made of the item's answer.
    pub reply: A,
}

enum SeatState<R> {
    Waiting,
    Promoted,
    Answered(Option<R>),
}

/// Where a submitting thread blocks while its item is queued. A thread
/// has one item in flight at a time, so one seat per thread is reused
/// across its submissions.
pub struct Seat<R> {
    state: Mutex<SeatState<R>>,
    wake: Condvar,
}

impl<R> Seat<R> {
    /// A fresh seat, shared with the queue while an item is queued.
    pub fn new() -> Arc<Self> {
        Arc::new(Seat {
            state: Mutex::new(SeatState::Waiting),
            wake: Condvar::new(),
        })
    }

    fn set(&self, state: SeatState<R>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        self.wake.notify_one();
    }

    /// Blocks until answered (`Some`) or promoted to leader (`None`), and
    /// leaves the seat ready for the next submission.
    fn wait(&self) -> Option<Option<R>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *state, SeatState::Waiting) {
                SeatState::Waiting => {
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SeatState::Promoted => return None,
                SeatState::Answered(answer) => return Some(answer),
            }
        }
    }
}

struct Entry<T, R> {
    item: T,
    weight: usize,
    seat: Arc<Seat<R>>,
}

struct Inner<T, R> {
    items: VecDeque<Entry<T, R>>,
    /// A wave is in flight, or leadership is on its way to a promoted
    /// follower. Invariant: `items` non-empty implies `leading`.
    leading: bool,
    closed: bool,
}

/// A bounded queue whose submitters execute it themselves, one wave at a
/// time; see the module docs.
pub struct RequestQueue<T, R> {
    inner: Mutex<Inner<T, R>>,
    capacity: usize,
    max_weight: usize,
}

impl<T, R> RequestQueue<T, R> {
    /// Creates a queue holding at most `capacity` items (minimum 1) whose
    /// waves stop at `max_weight` total weight (minimum 1).
    pub fn new(capacity: usize, max_weight: usize) -> Self {
        RequestQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                leading: false,
                closed: false,
            }),
            capacity: capacity.max(1),
            max_weight: max_weight.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T, R>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items admitted and not yet taken into a wave (racy snapshot).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Submits one item and returns what `reply` made of its answer.
    ///
    /// `run_wave` is called only if this thread leads: it gets the wave's
    /// items in FIFO order (this thread's own first) and must return one
    /// answer per item, in order. `reply` is always called, on this
    /// thread, with this item's answer — `None` when the wave that carried
    /// it was abandoned (its leader unwound before answers were ready).
    ///
    /// A leader runs `reply`, then passes the lead on, then hands its
    /// followers their answers, so **`reply` must not block**: the next
    /// wave waits for it. Both halves of that order are measured. The
    /// thread a retiring leader promotes starts a CPU-bound wave at once,
    /// and a leader that has just spent a whole wave on the CPU is the
    /// thread the scheduler makes wait: with 32-query frames, passing the
    /// lead on first left the leader's 50 µs of response work queued
    /// behind the next 4 ms wave. Handing the answers over, on the other
    /// hand, is a string of wake-ups that the promoted thread's own
    /// wake-up can overlap: doing it before passing the lead on cost a few
    /// percent of throughput at 32 single-query connections. Work that can
    /// wait on a peer (the rest of a socket write) belongs after `submit`
    /// returns.
    ///
    /// The lead is a drop guard from the moment the wave starts, so a
    /// `run_wave` or `reply` that unwinds still promotes the next leader
    /// and answers the followers — with `None` when the wave died.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity (the item is dropped here, so
    /// callers must not need it back), [`PushError::Closed`] after
    /// [`RequestQueue::close`].
    pub fn submit<A>(
        &self,
        seat: &Arc<Seat<R>>,
        item: T,
        weight: usize,
        run_wave: impl FnOnce(&[T]) -> Vec<R>,
        reply: impl FnOnce(Option<R>) -> A,
    ) -> Result<Admitted<A>, PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full {
                capacity: self.capacity,
                depth: inner.items.len(),
            });
        }
        inner.items.push_back(Entry {
            item,
            weight: weight.max(1),
            seat: Arc::clone(seat),
        });
        let depth = inner.items.len();
        if inner.leading {
            drop(inner);
            if let Some(answer) = seat.wait() {
                return Ok(Admitted {
                    depth,
                    reply: reply(answer),
                });
            }
            inner = self.lock();
        } else {
            inner.leading = true;
        }

        // Leading: this thread's item is at the front (the queue was empty
        // when it took the lead, or it was promoted as the front's owner).
        let (items, mut seats) = self.take_wave(&mut inner.items);
        drop(inner);
        debug_assert!(seats.first().is_some_and(|s| Arc::ptr_eq(s, seat)));
        let mut lead = Lead {
            queue: self,
            followers: seats.split_off(1),
            answers: Vec::new().into_iter(),
        };
        lead.answers = run_wave(&items).into_iter();
        let reply = reply(lead.answers.next());
        drop(lead);
        Ok(Admitted { depth, reply })
    }

    /// Pops the next wave: the front item always, then more while the
    /// weight budget holds (so an oversized item ships alone).
    fn take_wave(&self, queue: &mut VecDeque<Entry<T, R>>) -> (Vec<T>, Vec<Arc<Seat<R>>>) {
        let mut items = Vec::new();
        let mut seats = Vec::new();
        let mut weight = 0usize;
        while let Some(front) = queue.front() {
            if !items.is_empty() && weight + front.weight > self.max_weight {
                break;
            }
            weight += front.weight;
            // `front()` was `Some`, so `pop_front()` is too.
            if let Some(entry) = queue.pop_front() {
                items.push(entry.item);
                seats.push(entry.seat);
            }
        }
        (items, seats)
    }

    /// Closes the queue: submissions fail with [`PushError::Closed`];
    /// items already queued are still answered. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
    }

    /// True once [`RequestQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// Leadership of the queue, held by the thread running the current wave.
/// Dropping it passes the lead to the owner of the new front item (or to
/// nobody when the queue is empty), so the next wave starts then, and
/// hands the wave's followers their answers — `None` each if the wave
/// function unwound before there were any.
struct Lead<'q, T, R> {
    queue: &'q RequestQueue<T, R>,
    followers: Vec<Arc<Seat<R>>>,
    answers: std::vec::IntoIter<R>,
}

impl<T, R> Drop for Lead<'_, T, R> {
    fn drop(&mut self) {
        let mut inner = self.queue.lock();
        let next = inner.items.front().map(|entry| Arc::clone(&entry.seat));
        inner.leading = next.is_some();
        drop(inner);
        if let Some(seat) = next {
            seat.set(SeatState::Promoted);
        }
        for follower in self.followers.drain(..) {
            follower.set(SeatState::Answered(self.answers.next()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    type Queue = RequestQueue<usize, usize>;
    /// `(depth, answer)` of an admitted item.
    type Outcome = Result<(usize, Option<usize>), PushError>;

    /// Submits with a `reply` that passes the answer through.
    fn submit(
        q: &Queue,
        seat: &Arc<Seat<usize>>,
        item: usize,
        weight: usize,
        run_wave: impl FnOnce(&[usize]) -> Vec<usize>,
    ) -> Outcome {
        q.submit(seat, item, weight, run_wave, |answer| answer)
            .map(|a| (a.depth, a.reply))
    }

    /// Submits `item` with a wave function that echoes items as answers.
    fn echo(q: &Queue, item: usize) -> Outcome {
        submit(q, &Seat::new(), item, 1, |wave| wave.to_vec())
    }

    /// Starts a leader whose wave reports its items on `started` and then
    /// blocks until `release` fires, so a test can queue followers behind
    /// it deterministically.
    fn blocked_leader(
        q: &Arc<Queue>,
        item: usize,
    ) -> (thread::JoinHandle<Outcome>, mpsc::Sender<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let qc = Arc::clone(q);
        let leader = thread::spawn(move || {
            submit(&qc, &Seat::new(), item, 1, |wave| {
                started_tx.send(wave.to_vec()).expect("test listens");
                let _ = release_rx.recv();
                wave.to_vec()
            })
        });
        assert_eq!(
            started_rx.recv().expect("leader starts"),
            vec![item],
            "a lone submitter leads a wave of its own item"
        );
        (leader, release_tx)
    }

    /// Spawns a follower and waits until its item is visibly queued. If it
    /// gets to lead, it reports its wave on `waves`.
    fn queued_follower(
        q: &Arc<Queue>,
        item: usize,
        weight: usize,
        waves: &mpsc::Sender<Vec<usize>>,
    ) -> thread::JoinHandle<Outcome> {
        let before = q.depth();
        let qc = Arc::clone(q);
        let waves = waves.clone();
        let follower = thread::spawn(move || {
            submit(&qc, &Seat::new(), item, weight, |wave| {
                waves.send(wave.to_vec()).expect("test listens");
                wave.to_vec()
            })
        });
        while q.depth() == before {
            thread::yield_now();
        }
        follower
    }

    #[test]
    fn lone_submitter_runs_its_own_wave_inline() {
        let q = Queue::new(4, 8);
        let me = thread::current().id();
        let admitted = q
            .submit(
                &Seat::new(),
                7,
                1,
                |wave| {
                    assert_eq!(thread::current().id(), me, "no hand-off");
                    assert_eq!(wave, [7]);
                    vec![70]
                },
                |answer| {
                    assert_eq!(thread::current().id(), me, "no hand-off");
                    answer.map(|a| a + 1)
                },
            )
            .expect("admitted");
        assert_eq!((admitted.depth, admitted.reply), (1, Some(71)));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn followers_coalesce_into_fifo_waves_up_to_weight() {
        let q = Arc::new(Queue::new(16, 3));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, waves_rx) = mpsc::channel();
        let followers: Vec<_> = (1..=5)
            .map(|i| queued_follower(&q, i, 1, &waves_tx))
            .collect();
        release.send(()).expect("leader waits");
        assert_eq!(leader.join().expect("leader"), Ok((1, Some(0))));
        for (i, f) in followers.into_iter().enumerate() {
            // Own answer, by value; depth counts the items queued ahead.
            assert_eq!(f.join().expect("follower"), Ok((i + 1, Some(i + 1))));
        }
        drop(waves_tx);
        let waves: Vec<Vec<usize>> = waves_rx.iter().collect();
        assert_eq!(waves, vec![vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn a_leader_replies_before_the_next_wave_starts() {
        let q = Arc::new(Queue::new(8, 4));
        let (waves_tx, waves_rx) = mpsc::channel();
        let mut follower = None;
        let admitted = q
            .submit(
                &Seat::new(),
                0,
                1,
                |wave| {
                    follower = Some(queued_follower(&q, 1, 1, &waves_tx));
                    wave.to_vec()
                },
                |answer| {
                    // Only the end of `submit` promotes, so this cannot be
                    // a race: the follower is queued and stays queued.
                    thread::sleep(Duration::from_millis(5));
                    assert!(waves_rx.try_recv().is_err(), "no wave during the reply");
                    assert_eq!(q.depth(), 1);
                    answer
                },
            )
            .expect("admitted");
        assert_eq!(admitted.reply, Some(0));
        assert_eq!(waves_rx.recv().expect("promoted"), vec![1]);
        let follower = follower.expect("spawned in the wave");
        assert_eq!(follower.join().expect("follower"), Ok((1, Some(1))));
    }

    #[test]
    fn a_followers_reply_holds_nobody_up() {
        let q = Arc::new(Queue::new(8, 2));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, waves_rx) = mpsc::channel();
        let second = queued_follower(&q, 1, 1, &waves_tx);
        // Rides in the second wave as a follower and blocks in its reply.
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let qc = Arc::clone(&q);
        let slow = thread::spawn(move || {
            qc.submit(
                &Seat::new(),
                2,
                1,
                |_| unreachable!("answered by the second wave"),
                |answer| {
                    let _ = go_rx.recv();
                    answer
                },
            )
            .map(|a| a.reply)
        });
        while q.depth() < 2 {
            thread::yield_now();
        }
        let third = queued_follower(&q, 3, 1, &waves_tx);
        release.send(()).expect("leader waits");
        assert!(leader.join().expect("leader").is_ok());
        assert_eq!(second.join().expect("second"), Ok((1, Some(1))));
        // The third wave runs to completion while `slow` still replies.
        assert_eq!(third.join().expect("third"), Ok((3, Some(3))));
        assert_eq!(
            waves_rx.try_iter().collect::<Vec<_>>(),
            [vec![1, 2], vec![3]]
        );
        go_tx.send(()).expect("slow waits");
        assert_eq!(slow.join().expect("slow"), Ok(Some(2)));
    }

    #[test]
    fn oversized_item_ships_alone() {
        let q = Arc::new(Queue::new(8, 4));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, waves_rx) = mpsc::channel();
        let big = queued_follower(&q, 10, 10, &waves_tx);
        let small = queued_follower(&q, 1, 1, &waves_tx);
        release.send(()).expect("leader waits");
        for h in [leader, big, small] {
            assert!(h.join().expect("thread").expect("admitted").1.is_some());
        }
        drop(waves_tx);
        let waves: Vec<Vec<usize>> = waves_rx.iter().collect();
        assert_eq!(waves, vec![vec![10], vec![1]]);
    }

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = Arc::new(Queue::new(2, 1));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, _waves_rx) = mpsc::channel();
        let a = queued_follower(&q, 1, 1, &waves_tx);
        let b = queued_follower(&q, 2, 1, &waves_tx);
        assert_eq!(
            echo(&q, 3),
            Err(PushError::Full {
                capacity: 2,
                depth: 2
            })
        );
        release.send(()).expect("leader waits");
        for h in [leader, a, b] {
            assert!(h.join().expect("thread").expect("admitted").1.is_some());
        }
    }

    #[test]
    fn close_rejects_new_work_and_still_answers_the_queued() {
        let q = Arc::new(Queue::new(8, 1));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, _waves_rx) = mpsc::channel();
        let followers: Vec<_> = (1..=3)
            .map(|i| queued_follower(&q, i, 1, &waves_tx))
            .collect();
        q.close();
        assert!(q.is_closed());
        assert_eq!(echo(&q, 9), Err(PushError::Closed));
        release.send(()).expect("leader waits");
        assert_eq!(leader.join().expect("leader"), Ok((1, Some(0))));
        for (i, f) in followers.into_iter().enumerate() {
            let (_, answer) = f.join().expect("follower").expect("admitted before close");
            assert_eq!(answer, Some(i + 1));
        }
        assert_eq!(q.depth(), 0);
        assert_eq!(echo(&q, 9), Err(PushError::Closed));
    }

    #[test]
    fn unwinding_leader_promotes_the_next_and_fails_its_wave() {
        let q = Arc::new(Queue::new(8, 2));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, _waves_rx) = mpsc::channel();
        // Front of the queue: leads the next wave (items 1 and 2) and
        // panics in it.
        let qc = Arc::clone(&q);
        let panicking = thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                submit(&qc, &Seat::new(), 1, 1, |_| panic!("wave dies"))
            }))
        });
        while q.depth() == 0 {
            thread::yield_now();
        }
        let carried = queued_follower(&q, 2, 1, &waves_tx);
        let next = queued_follower(&q, 3, 1, &waves_tx);
        release.send(()).expect("leader waits");
        assert!(leader.join().expect("leader").is_ok());
        assert!(panicking.join().expect("joined").is_err(), "panic surfaces");
        assert_eq!(
            carried.join().expect("carried"),
            Ok((2, None)),
            "a follower of the dead wave is told, not stranded"
        );
        assert_eq!(
            next.join().expect("next"),
            Ok((3, Some(3))),
            "leadership passed on despite the unwind"
        );
        // And the queue is usable afterwards.
        assert_eq!(echo(&q, 4), Ok((1, Some(4))));
    }

    #[test]
    fn an_unwinding_reply_costs_nobody_else_an_answer() {
        let q = Arc::new(Queue::new(8, 2));
        let (leader, release) = blocked_leader(&q, 0);
        let (waves_tx, _waves_rx) = mpsc::channel();
        // Front of the queue: leads the next wave (items 1 and 2) and
        // panics replying to itself.
        let qc = Arc::clone(&q);
        let panicking = thread::spawn(move || {
            catch_unwind(AssertUnwindSafe(|| {
                qc.submit(&Seat::new(), 1, 1, |w| w.to_vec(), |_| panic!("reply dies"))
                    .map(|a: Admitted<()>| a.depth)
            }))
        });
        while q.depth() == 0 {
            thread::yield_now();
        }
        let carried = queued_follower(&q, 2, 1, &waves_tx);
        let next = queued_follower(&q, 3, 1, &waves_tx);
        release.send(()).expect("leader waits");
        assert!(leader.join().expect("leader").is_ok());
        assert!(panicking.join().expect("joined").is_err(), "panic surfaces");
        assert_eq!(carried.join().expect("carried"), Ok((2, Some(2))));
        assert_eq!(next.join().expect("next"), Ok((3, Some(3))));
    }

    #[test]
    fn a_seat_is_reusable_across_submissions() {
        let q = Arc::new(Queue::new(8, 1));
        let seat = Seat::new();
        let (leader, release) = blocked_leader(&q, 0);
        let qc = Arc::clone(&q);
        let follower = thread::spawn(move || {
            let first = submit(&qc, &seat, 1, 1, |w| w.to_vec());
            let second = submit(&qc, &seat, 2, 1, |w| w.to_vec());
            (first, second)
        });
        while q.depth() == 0 {
            thread::yield_now();
        }
        // Give a stray wake-up the chance to show before releasing.
        thread::sleep(Duration::from_millis(5));
        release.send(()).expect("leader waits");
        assert!(leader.join().expect("leader").is_ok());
        assert_eq!(
            follower.join().expect("follower"),
            (Ok((1, Some(1))), Ok((1, Some(2))))
        );
    }
}

//! The process-wide morsel pool: `available_parallelism() − 1` helper
//! threads that [`crate::parallel::run_round`] lends its claim loop to.
//!
//! Helpers live for the whole process, park on a condvar between rounds
//! and keep their thread-local kernel scratch warm, so a round pays for
//! neither a spawn nor a cold accumulator. A round lends its job only to
//! helpers that are idle, and never waits for one that has not started:
//! once the caller's own claim loop has run dry it takes back every post
//! no helper has picked up and waits only for helpers that are running
//! the job — by then the queue is empty, so each of them is at most one
//! morsel from returning. Every post carries its round's number, and a
//! round recalls and waits for its own posts only.
//!
//! This is the crate's only `unsafe` code: a job borrows the round's
//! prepared scans from the caller's stack, and a long-lived helper can
//! hold it only as a `'static` reference. [`Pool::run`] erases that
//! lifetime and, like `std::thread::scope`, does not return — or unwind
//! — before every helper has let go of the job.
//!
//! Helpers are never joined: they hold nothing to flush, and a job's
//! panic is caught on the helper and raised again on the round's caller.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A round's job as a helper holds it: the caller's borrow, its lifetime
/// erased by [`Pool::run`].
type Job = &'static (dyn Fn() + Sync);

/// How recently two threads must both have run rounds to count as two
/// concurrent query streams (see [`Pool::grant`]). It is far longer than
/// one stream's gap between rounds (a closed-loop connection runs one
/// every 0.1–2 ms, more when answers come from a cache) and far shorter
/// than any measurement pass, so two busy connections always see each
/// other and a stream left alone gets the helpers back within 10 ms.
const STREAM_WINDOW: Duration = Duration::from_millis(10);

/// A thread's current burst of rounds: rounds no more than the window
/// apart.
#[derive(Clone, Copy)]
struct Burst {
    stream: u64,
    since: Instant,
    last: Instant,
}

thread_local! {
    static BURST: Cell<Option<Burst>> = const { Cell::new(None) };
}

/// Source of stream numbers; 0 stands for no stream in `Pool::recent`.
static STREAMS: AtomicU64 = AtomicU64::new(1);

/// One helper's mailbox. Every transition happens under `state`'s lock
/// and is a single assignment, so the state is valid at every step and a
/// poisoned lock (which nothing here can cause) is safe to read through.
struct Slot {
    state: Mutex<State>,
    /// Wakes the helper: a job was posted.
    posted: Condvar,
    /// Wakes the round's caller: the job it waits for is done.
    done: Condvar,
}

enum State {
    /// Parked and free to lend.
    Idle,
    /// Lent to `round`; the helper has not picked the job up.
    Posted { round: u64, job: Job },
    /// The helper is running `round`'s job.
    Running { round: u64 },
    /// The helper has finished `round`'s job and dropped it. Only that
    /// round's caller turns the slot back to `Idle`.
    Done { round: u64, panicked: bool },
}

/// A set of helper threads and the stream bookkeeping that decides when
/// a round may use them.
pub(crate) struct Pool {
    slots: Box<[Slot]>,
    /// Numbers the rounds that post, to tag their posts.
    rounds: AtomicU64,
    /// `(stream, start)` of the latest round, and of the latest round of
    /// any other stream.
    recent: Mutex<[(u64, Option<Instant>); 2]>,
    /// [`STREAM_WINDOW`], except in tests.
    window: Duration,
}

fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// The process's pool, with one helper per core beyond the caller's,
    /// started by the first round.
    pub(crate) fn global() -> &'static Pool {
        static GLOBAL: OnceLock<&'static Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            let pool = Pool::unstarted(cores - 1, STREAM_WINDOW);
            for helper in 0..cores - 1 {
                pool.start_helper(helper);
            }
            pool
        })
    }

    /// A pool of `helpers` slots whose helper threads are not running yet
    /// ([`Pool::start_helper`] starts each).
    pub(crate) fn unstarted(helpers: usize, window: Duration) -> &'static Pool {
        let slots = (0..helpers)
            .map(|_| Slot { state: Mutex::new(State::Idle), posted: Condvar::new(), done: Condvar::new() })
            .collect();
        Box::leak(Box::new(Pool { slots, rounds: AtomicU64::new(0), recent: Mutex::new([(0, None); 2]), window }))
    }

    /// Start the thread that serves slot `helper`.
    pub(crate) fn start_helper(&'static self, helper: usize) {
        std::thread::Builder::new()
            .name(format!("aqp-morsel-{helper}"))
            .spawn(move || self.serve(&self.slots[helper]))
            .expect("spawn morsel pool helper");
    }

    fn serve(&self, slot: &Slot) {
        let mut state = lock(&slot.state);
        loop {
            if let State::Posted { round, job } = *state {
                *state = State::Running { round };
                drop(state);
                let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
                state = lock(&slot.state);
                *state = State::Done { round, panicked };
                slot.done.notify_one();
            } else {
                state = slot.posted.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Whether another query stream is active beside this thread's:
    /// another thread started a round within the window and after this
    /// thread's current burst of rounds began. Rounds served from a cache
    /// never reach the pool, so an active stream may skip a few of this
    /// thread's rounds; a thread whose rounds all came after another's
    /// last one (a new connection replacing an old one) is alone. Records
    /// this round either way.
    fn streams_interleave(&self) -> bool {
        let now = Instant::now();
        let burst = match BURST.get() {
            Some(burst) if now.duration_since(burst.last) < self.window => Burst { last: now, ..burst },
            Some(burst) => Burst { since: now, last: now, ..burst },
            None => Burst { stream: STREAMS.fetch_add(1, Ordering::Relaxed), since: now, last: now },
        };
        BURST.set(Some(burst));
        let mut recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
        let [latest, runner_up] = *recent;
        let other = if latest.0 == burst.stream { runner_up } else { latest };
        *recent = [(burst.stream, Some(now)), other];
        drop(recent);
        other.1.is_some_and(|at| at > burst.since && now.duration_since(at) < self.window)
    }

    /// How many helpers a round that wants `helpers` of them may post to:
    /// none while another query stream interleaves with this thread's (the
    /// streams already keep the cores busy, and lending to both would only
    /// make them queue for the helpers), otherwise as many as the pool has.
    pub(crate) fn grant(&self, helpers: usize) -> usize {
        if self.streams_interleave() {
            0
        } else {
            helpers.min(self.slots.len())
        }
    }

    /// Run `caller` on this thread while up to `helpers` idle helpers run
    /// `job` beside it (see [`Pool::grant`]), then take back every post no
    /// helper picked up, wait for the helpers that did, and return what
    /// `caller` returned. `job` must stop soon once `caller` has returned
    /// or unwound; a job that panicked on a helper panics here, after the
    /// wait, with "morsel worker panicked".
    pub(crate) fn run<R>(&self, helpers: usize, job: &(dyn Fn() + Sync), caller: impl FnOnce() -> R) -> R {
        let helpers = self.grant(helpers);
        let mut lent = Lent { pool: self, round: 0, slots: Vec::new() };
        if helpers > 0 {
            lent.round = self.rounds.fetch_add(1, Ordering::Relaxed);
            // SAFETY: only the lifetime changes (both are the same fat
            // reference). The erased `job` is stored only in slots lent to
            // this round (`Posted { round }`), and a helper drops it before
            // it writes `Done { round }`. `lent`, created above, records
            // every such slot before posting to it and settles each before
            // this frame — which owns the borrow — returns or unwinds: a
            // `Posted` one is reset to `Idle` unread, a `Running` one is
            // waited for until `Done`. `Lent::drop` does the same on
            // unwind, so no helper holds `job` past it.
            let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
            for (i, slot) in self.slots.iter().enumerate() {
                let mut state = lock(&slot.state);
                if let State::Idle = *state {
                    lent.slots.push(i);
                    *state = State::Posted { round: lent.round, job };
                    drop(state);
                    slot.posted.notify_one();
                    if lent.slots.len() == helpers {
                        break;
                    }
                }
            }
        }
        let out = caller();
        if lent.settle() {
            panic!("morsel worker panicked");
        }
        out
    }
}

/// The slots one [`Pool::run`] has lent, settled on every way out of it.
struct Lent<'p> {
    pool: &'p Pool,
    round: u64,
    slots: Vec<usize>,
}

impl Lent<'_> {
    /// Recall every post of this round that no helper picked up, wait for
    /// the ones a helper is running, and return every slot to `Idle`.
    /// True if a helper's run of the job panicked.
    fn settle(&mut self) -> bool {
        let mut panicked = false;
        for i in self.slots.drain(..) {
            let slot = &self.pool.slots[i];
            let mut state = lock(&slot.state);
            while matches!(*state, State::Running { round } if round == self.round) {
                state = slot.done.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            match *state {
                State::Posted { round, .. } | State::Done { round, panicked: false } if round == self.round => {}
                State::Done { round, panicked: true } if round == self.round => panicked = true,
                // A lent slot changes hands only through its round, so no
                // other state can hold this round's job: leave it be.
                _ => {
                    debug_assert!(false, "slot {i} left round {}", self.round);
                    continue;
                }
            }
            *state = State::Idle;
        }
        panicked
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        // Empty after a normal `settle`; on unwind this is the wait that
        // keeps the erased job from outliving its frame.
        self.settle();
    }
}

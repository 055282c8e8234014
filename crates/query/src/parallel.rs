//! Morsel-driven parallel scan scheduling with deterministic merge.
//!
//! [`run_round`] fans the morsels of one *or several* scans out to the
//! caller's thread and the process's morsel pool: workers claim morsels
//! from a shared atomic counter (morsel-driven parallelism, Leis et al.),
//! so a slow morsel never stalls the others. A plan that is a UNION ALL
//! over sample tables puts all of its scans into one round — one post to
//! the pool's parked helpers for the plan, not one per table. The
//! per-morsel results come back **per scan, in morsel order**, which
//! makes downstream folds deterministic: float aggregate merges are not
//! associative, so the only way `--threads 8` can be bit-identical to
//! `--threads 1` is for both to compute the same per-morsel partials and
//! combine them in the same order. The executor
//! therefore routes *every* scan — including single-threaded ones —
//! through the same morsel decomposition and the same in-order fold
//! ([`crate::PreparedScan::finish`]).
//!
//! What a worker hands back per morsel is a flat group table
//! (`groups`): two exact-size vectors, so a helper thread's
//! partials cost the control thread two frees each, not one per group.
//! The folds append unseen groups in the order their inputs list them —
//! first-touch order within a morsel, morsel order within a scan, plan
//! order across scans — so group *order*, like every merged value, is a
//! pure function of the data: two runs, at any two thread counts,
//! produce byte-identical output without any sorting step, from the
//! executor's [`crate::QueryOutput`] up to the plan layer's answers.

use crate::cancel::CancelToken;
use crate::pool::Pool;
use aqp_storage::morsel::{Morsel, MorselIter};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `work` over every morsel of `0..rows` on up to `threads` workers,
/// returning the per-morsel results in morsel order: a [`run_round`] of
/// one scan, without a cancellation token.
pub fn run_morsels<T, F>(rows: usize, morsel_rows: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(Morsel) -> T + Sync,
{
    let round = run_round(&[MorselIter::new(rows, morsel_rows)], threads, None, |_, m| work(m));
    debug_assert!(!round.cancelled, "no token was supplied");
    round.results.into_iter().next().expect("one scan in, one out")
}

/// Scheduling statistics of one scan within a [`run_round`].
///
/// Purely informational: the claim split across workers depends on the OS
/// schedule and changes run to run, unlike the returned results, which are
/// always in morsel order. Consumers (the `EXPLAIN ANALYZE` profiler) must
/// treat it as telemetry, never as an input to computation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MorselSchedule {
    /// This scan's morsels claimed by each worker that claimed any, in
    /// worker order (the caller's thread first). Empty for an empty scan.
    pub claims: Vec<u64>,
}

/// What one [`run_round`] produced.
#[derive(Debug)]
pub struct Round<T> {
    /// Per scan, the per-morsel results in morsel order.
    pub results: Vec<Vec<T>>,
    /// Per scan, how its morsels were split across workers.
    pub schedules: Vec<MorselSchedule>,
    /// The token tripped before every morsel was claimed. `results` is
    /// then incomplete and MUST NOT be folded into an answer (partial
    /// coverage would depend on the OS schedule); callers surface
    /// [`crate::QueryError::Cancelled`] instead.
    pub cancelled: bool,
}

/// Run `work(scan, morsel)` over every morsel of every scan in one
/// scheduling round on up to `threads` workers, the caller's thread being
/// the first of them.
///
/// The morsels of all scans form one queue, claimed in scan order then
/// morsel order. The schedule (which thread runs which morsel) is
/// nondeterministic; the result is not: slot `i` of `results[s]` always
/// holds the result for morsel `i` of scan `s`, and `work` receives
/// identical morsels no matter how many threads run.
///
/// The other workers are helpers of the process's morsel pool (one per
/// core beyond the caller's), lent to the round only while idle: a round
/// never waits for a helper to start, so with every helper busy it runs
/// on the caller alone, and `threads` above the core count adds none.
/// While another thread's query stream interleaves with this thread's
/// rounds, a round takes no helper at all (the streams already keep the
/// cores busy). `threads <= 1` always runs on the caller.
///
/// A [`CancelToken`] is checked at every morsel **claim point**: a worker
/// about to claim its next morsel first checks the token and stops
/// claiming once it has tripped (explicit cancel or deadline), so a
/// timed-out query frees its threads within one morsel. A panic in `work`
/// stops the other workers at their next claim too, and is raised on the
/// caller once they have (a helper's as "morsel worker panicked").
pub fn run_round<T, F>(
    scans: &[MorselIter],
    threads: usize,
    cancel: Option<&CancelToken>,
    work: F,
) -> Round<T>
where
    T: Send,
    F: Fn(usize, Morsel) -> T + Sync,
{
    run_round_in(Pool::global(), scans, threads, cancel, work)
}

/// [`run_round`] on the helpers of `pool`.
fn run_round_in<T, F>(
    pool: &Pool,
    scans: &[MorselIter],
    threads: usize,
    cancel: Option<&CancelToken>,
    work: F,
) -> Round<T>
where
    T: Send,
    F: Fn(usize, Morsel) -> T + Sync,
{
    let counts: Vec<usize> = scans.iter().map(MorselIter::count_total).collect();
    let total: usize = counts.iter().sum();

    // Position `i` of the round's queue, as (scan, morsel of that scan).
    let locate = |mut i: usize| {
        for (scan, &count) in counts.iter().enumerate() {
            if i < count {
                return scans[scan].get(i).map(|m| (scan, m));
            }
            i -= count;
        }
        None
    };
    let next = AtomicUsize::new(0);
    let abandoned = AtomicBool::new(false);
    let claim_loop = || {
        let _stop_others = AbandonOnUnwind(&abandoned);
        let mut mine = Vec::new();
        while !abandoned.load(Ordering::Relaxed) && !cancel.is_some_and(CancelToken::is_cancelled) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match locate(i) {
                Some((scan, m)) => mine.push((i, scan, work(scan, m))),
                None => break,
            }
        }
        mine
    };
    let lent = Mutex::new(Vec::new());
    let helper_job = || {
        let mine = claim_loop();
        if !mine.is_empty() {
            lent.lock().expect("a helper panicked while handing in its morsels").push(mine);
        }
    };
    let helpers = threads.min(total).saturating_sub(1);
    let mut per_worker = vec![pool.run(helpers, &helper_job, claim_loop)];
    per_worker.extend(lent.into_inner().expect("a helper panicked while handing in its morsels"));

    let mut schedules = vec![MorselSchedule::default(); scans.len()];
    let mut tagged = Vec::with_capacity(total);
    for mine in per_worker {
        let mut claimed = vec![0u64; scans.len()];
        for (_, scan, _) in &mine {
            claimed[*scan] += 1;
        }
        for (schedule, n) in schedules.iter_mut().zip(claimed) {
            if n > 0 {
                schedule.claims.push(n);
            }
        }
        tagged.extend(mine);
    }
    // Restore queue order so the caller's fold is schedule-independent.
    tagged.sort_by_key(|(i, _, _)| *i);
    let cancelled = tagged.len() < total;
    let mut results: Vec<Vec<T>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for (_, scan, t) in tagged {
        results[scan].push(t);
    }
    Round { results, schedules, cancelled }
}

/// Stops a round's other workers at their next claim when the worker
/// holding it unwinds out of `work`.
struct AbandonOnUnwind<'a>(&'a AtomicBool);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::time::Duration;

    fn one(rows: usize, morsel_rows: usize) -> [MorselIter; 1] {
        [MorselIter::new(rows, morsel_rows)]
    }

    #[test]
    fn results_arrive_in_morsel_order_at_any_thread_count() {
        for threads in [1, 2, 4, 8] {
            let out = run_morsels(10_000, 256, threads, |m| (m.index, m.start, m.end));
            assert_eq!(out.len(), 40);
            for (i, (idx, start, end)) in out.iter().enumerate() {
                assert_eq!(*idx, i);
                assert_eq!(*start, i * 256);
                assert_eq!(*end, ((i + 1) * 256).min(10_000));
            }
        }
    }

    #[test]
    fn zero_rows_runs_nothing() {
        let round = run_round(&one(0, 4096), 8, None, |_, m| m.len());
        assert_eq!(round.results, vec![Vec::<usize>::new()]);
        assert!(round.schedules[0].claims.is_empty());
        assert!(!round.cancelled);
        let round = run_round(&[], 8, None, |_, m| m.len());
        assert!(round.results.is_empty() && !round.cancelled);
    }

    #[test]
    fn schedule_claims_account_for_every_morsel() {
        for threads in [1, 3, 8] {
            let round = run_round(&one(10_000, 256), threads, None, |_, m| m.index);
            assert_eq!(round.results[0].len(), 40);
            let claims = &round.schedules[0].claims;
            assert_eq!(claims.iter().sum::<u64>(), 40, "at {threads} threads");
            assert!(claims.len() <= threads);
            if threads == 1 {
                assert_eq!(claims, &vec![40]);
            }
        }
    }

    #[test]
    fn more_threads_than_morsels() {
        let out = run_morsels(10, 4, 64, |m| m.len());
        assert_eq!(out, vec![4, 4, 2]);
        let out = run_morsels(100, 4, 64, |m| m.len());
        assert_eq!(out, vec![4; 25]);
    }

    #[test]
    fn one_round_covers_every_scan_in_scan_then_morsel_order() {
        // Scans of 3, 0, 1 and 12 morsels: every result lands in its own
        // scan's slot whichever worker ran it.
        let scans = [
            MorselIter::new(10, 4),
            MorselIter::new(0, 4),
            MorselIter::new(3, 4),
            MorselIter::new(48, 4),
        ];
        for threads in [1, 2, 4, 8] {
            let round = run_round(&scans, threads, None, |scan, m| (scan, m.index, m.start));
            assert!(!round.cancelled);
            let lens: Vec<usize> = round.results.iter().map(Vec::len).collect();
            assert_eq!(lens, vec![3, 0, 1, 12], "at {threads} threads");
            for (s, results) in round.results.iter().enumerate() {
                for (i, &(scan, index, start)) in results.iter().enumerate() {
                    assert_eq!((scan, index, start), (s, i, i * 4));
                }
                let claimed: u64 = round.schedules[s].claims.iter().sum();
                assert_eq!(claimed as usize, results.len());
            }
        }
    }

    /// Patience for a handshake that a correct pool always completes: a
    /// broken one fails the test instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// A one-shot signal from one worker (or thread) to another.
    struct Signal {
        tx: mpsc::Sender<()>,
        rx: Mutex<mpsc::Receiver<()>>,
    }

    impl Signal {
        fn new() -> Signal {
            let (tx, rx) = mpsc::channel();
            Signal { tx, rx: Mutex::new(rx) }
        }
        fn send(&self) {
            let _ = self.tx.send(());
        }
        /// False if nothing was sent within [`PATIENCE`].
        fn wait(&self) -> bool {
            self.rx.lock().unwrap().recv_timeout(PATIENCE).is_ok()
        }
    }

    /// Sends its signal when dropped: the caller's morsel is unwinding.
    struct SendOnDrop<'a>(&'a Signal);

    impl Drop for SendOnDrop<'_> {
        fn drop(&mut self) {
            self.0.send();
        }
    }

    /// A private pool of one running helper: rounds of concurrently
    /// running tests never reach it, and with a zero window no two
    /// threads' rounds count as interleaved streams.
    fn private_pool() -> &'static Pool {
        let pool = Pool::unstarted(1, Duration::ZERO);
        pool.start_helper(0);
        pool
    }

    /// Which side of a round the current morsel runs on, and whether it is
    /// that side's first morsel.
    struct Sides {
        caller: std::thread::ThreadId,
        caller_started: AtomicBool,
        helper_started: AtomicBool,
    }

    impl Sides {
        fn new() -> Sides {
            let caller = std::thread::current().id();
            Sides { caller, caller_started: AtomicBool::new(false), helper_started: AtomicBool::new(false) }
        }
        /// `(on the caller, first morsel of this side)`.
        fn here(&self) -> (bool, bool) {
            let on_caller = std::thread::current().id() == self.caller;
            let started = if on_caller { &self.caller_started } else { &self.helper_started };
            (on_caller, !started.swap(true, Ordering::SeqCst))
        }
    }

    /// Claims of a round of `morsels` one-row morsels at 2 threads on
    /// `pool` in which the caller and a helper, each on its first morsel,
    /// wait until the other has claimed one too — so either side may start
    /// first, and a round no helper joins fails the test.
    fn claims_with_a_helper(pool: &Pool, morsels: usize) -> Vec<u64> {
        let sides = Sides::new();
        let (caller_in, helper_in) = (Signal::new(), Signal::new());
        let round = run_round_in(pool, &one(morsels, 1), 2, None, |_, _| match sides.here() {
            (true, true) => {
                caller_in.send();
                assert!(helper_in.wait(), "no helper joined the round");
            }
            (false, true) => {
                helper_in.send();
                assert!(caller_in.wait(), "the caller claimed no morsel");
            }
            _ => {}
        });
        round.schedules[0].claims.clone()
    }

    /// Run a round of `morsels` one-row morsels at 2 threads on another
    /// thread; its claims, or `None` if it did not finish in time.
    fn claims_on_another_thread(pool: &'static Pool, morsels: usize) -> Option<Vec<u64>> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let round = run_round_in(pool, &one(morsels, 1), 2, None, |_, m| m.index);
            let _ = tx.send(round.schedules[0].claims.clone());
        });
        rx.recv_timeout(PATIENCE).ok()
    }

    #[test]
    fn an_idle_helper_joins_even_a_two_morsel_round() {
        let pool = private_pool();
        assert_eq!(claims_with_a_helper(pool, 2), vec![1, 1]);
        // One thread keeps every morsel on the caller.
        let caller = std::thread::current().id();
        let round = run_round_in(pool, &one(64, 1), 1, None, |_, _| std::thread::current().id());
        assert!(round.results[0].iter().all(|&id| id == caller));
        assert_eq!(round.schedules[0].claims, vec![64]);
    }

    #[test]
    fn a_busy_helper_leaves_the_round_to_its_caller() {
        // Round A holds the helper mid-morsel while round B runs on another
        // thread: B must neither wait for the helper nor get it.
        let pool = private_pool();
        let (sides, helper_in, release) = (Sides::new(), Signal::new(), Signal::new());
        let round = run_round_in(pool, &one(4, 1), 2, None, |_, _| match sides.here() {
            (true, true) => {
                assert!(helper_in.wait(), "no helper joined round A");
                let other = claims_on_another_thread(pool, 8);
                release.send();
                other
            }
            (false, true) => {
                helper_in.send();
                assert!(release.wait(), "round A's caller never released its helper");
                None
            }
            _ => None,
        });
        let other: Vec<_> = round.results[0].iter().flatten().collect();
        assert_eq!(other, vec![&vec![8]], "round B ran on its caller alone, without waiting");
        assert_eq!(round.schedules[0].claims.len(), 2);
    }

    #[test]
    fn a_post_no_helper_picked_up_is_recalled_and_left_alone_by_other_rounds() {
        // A slot whose helper is not running yet: round A's post is never
        // picked up. Round B, run while A's post is out, finds no idle slot
        // and finishes on its caller without touching or awaiting it.
        let pool = Pool::unstarted(1, Duration::ZERO);
        let sides = Sides::new();
        let round = run_round_in(pool, &one(4, 1), 2, None, |_, _| match sides.here() {
            (true, true) => claims_on_another_thread(pool, 8),
            _ => None,
        });
        let other: Vec<_> = round.results[0].iter().flatten().collect();
        assert_eq!(other, vec![&vec![8]], "round B ran on its caller alone, without waiting");
        assert_eq!(round.schedules[0].claims, vec![4], "round A's post was taken back unrun");
        // The recall left the slot idle: once its helper runs, it is lent.
        pool.start_helper(0);
        assert_eq!(claims_with_a_helper(pool, 4).len(), 2);
    }

    #[test]
    fn a_helper_panic_is_raised_on_the_caller_and_the_helper_survives() {
        let pool = private_pool();
        let (sides, helper_in) = (Sides::new(), Signal::new());
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_round_in(pool, &one(4, 1), 2, None, |_, _| match sides.here() {
                (true, true) => assert!(helper_in.wait(), "no helper joined the round"),
                (false, true) => {
                    helper_in.send();
                    panic!("a helper's morsel failed");
                }
                _ => {}
            })
        }));
        let payload = outcome.expect_err("the helper's panic reached the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"morsel worker panicked"));
        assert_eq!(claims_with_a_helper(pool, 4).len(), 2, "the next round still gets the helper");
    }

    #[test]
    fn a_caller_panic_unwinds_only_after_its_helper_has_finished() {
        let pool = private_pool();
        let (sides, helper_in, unwinding) = (Sides::new(), Signal::new(), Signal::new());
        let helper_finished = AtomicBool::new(false);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_round_in(pool, &one(4, 1), 2, None, |_, _| match sides.here() {
                (true, true) => {
                    assert!(helper_in.wait(), "no helper joined the round");
                    let _tell = SendOnDrop(&unwinding);
                    panic!("the caller's morsel failed");
                }
                (false, true) => {
                    helper_in.send();
                    // Finish the morsel only once the caller is unwinding.
                    assert!(unwinding.wait(), "the caller never unwound");
                    helper_finished.store(true, Ordering::SeqCst);
                }
                _ => {}
            })
        }));
        let payload = outcome.expect_err("the caller's panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the caller's morsel failed"));
        assert!(helper_finished.load(Ordering::SeqCst), "run_round returned while its helper ran");
        assert_eq!(claims_with_a_helper(pool, 4).len(), 2, "the helper is lent again");
    }

    #[test]
    fn a_morsel_can_run_a_nested_round() {
        let pool = private_pool();
        let round = run_round_in(pool, &one(8, 1), 2, None, |_, _| {
            let nested = run_round_in(pool, &one(16, 1), 2, None, |_, m| m.index);
            nested.results[0].clone()
        });
        let want: Vec<usize> = (0..16).collect();
        assert!(round.results[0].iter().all(|got| *got == want));
    }

    #[test]
    fn a_round_takes_no_helper_while_another_stream_interleaves() {
        // X, Y, X, X, then Z twice: Y ran within X's burst, so X and Y are
        // two live streams, and stay so while Y's round is in the window
        // (a stream whose answers come from a cache runs no round for a
        // while); Z's burst began after X's and Y's last rounds, so Z is
        // alone, as a connection that replaced two closed ones would be.
        let pool = Pool::unstarted(1, Duration::from_secs(3600));
        let (x_done, y_done, x_again) = (Signal::new(), Signal::new(), Signal::new());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(pool.grant(1), 1, "a first round is alone");
                x_done.send();
                assert!(y_done.wait());
                assert_eq!(pool.grant(1), 0, "Y ran during X's burst");
                assert_eq!(pool.grant(1), 0, "Y's round is still in the window");
                x_again.send();
            });
            s.spawn(|| {
                assert!(x_done.wait());
                assert_eq!(pool.grant(1), 1, "Y had run no round before");
                y_done.send();
            });
            s.spawn(|| {
                assert!(x_again.wait());
                assert_eq!(pool.grant(1), 1, "Z's first round is alone");
                assert_eq!(pool.grant(1), 1, "no round of another stream since Z's burst began");
                assert_eq!(pool.grant(3), 1, "no more helpers than the pool has");
            });
        });
        // Outside the window a thread's earlier round no longer counts.
        let pool = Pool::unstarted(1, Duration::ZERO);
        assert_eq!(pool.grant(1), 1);
        std::thread::scope(|s| {
            s.spawn(|| pool.grant(1));
        });
        assert_eq!(pool.grant(1), 1, "this thread's last round is past the window");
    }

    #[test]
    fn cancelled_token_stops_claiming() {
        for threads in [1, 4] {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let round = run_round(&one(100_000, 64), threads, Some(&token), |_, m| {
                // Trip the token partway through the scan.
                if ran.fetch_add(1, Ordering::Relaxed) == 10 {
                    token.cancel();
                }
                m.index
            });
            assert!(round.cancelled, "at {threads} threads");
            assert!(
                round.results[0].len() < 100_000 / 64,
                "claiming stopped early at {threads} threads"
            );
        }
    }

    #[test]
    fn token_tripped_in_a_later_scan_cancels_the_round() {
        // The first scan of the plan completes; the token trips while the
        // second is under way. The round as a whole reports cancelled.
        let scans = [MorselIter::new(40, 4), MorselIter::new(4_000, 4)];
        for threads in [1, 4] {
            let token = CancelToken::new();
            let round = run_round(&scans, threads, Some(&token), |scan, m| {
                if scan == 1 && m.index == 3 {
                    token.cancel();
                }
                m.index
            });
            assert!(round.cancelled, "at {threads} threads");
            assert_eq!(round.results[0].len(), 10, "the first scan had finished");
            assert!(round.results[1].len() < 1_000, "claiming stopped at {threads} threads");
        }
    }

    #[test]
    fn untripped_token_changes_nothing() {
        let token = CancelToken::new();
        for threads in [1, 4] {
            let round = run_round(&one(10_000, 256), threads, Some(&token), |_, m| m.index);
            assert!(!round.cancelled);
            assert_eq!(round.results[0].len(), 40);
            assert_eq!(round.schedules[0].claims.iter().sum::<u64>(), 40);
            for (i, idx) in round.results[0].iter().enumerate() {
                assert_eq!(*idx, i, "results stay in morsel order");
            }
        }
    }

    #[test]
    fn pre_tripped_token_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        for rows in [10_000, 1_000] {
            // 40 morsels and 4.
            let round = run_round(&one(rows, 256), 4, Some(&token), |_, m| m.index);
            assert!(round.cancelled);
            assert!(round.results[0].is_empty(), "no morsel claimed after a pre-tripped token");
        }
    }
}

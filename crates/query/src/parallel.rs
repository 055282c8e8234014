//! Morsel-driven parallel scan scheduling with deterministic merge.
//!
//! [`run_round`] fans the morsels of one *or several* scans out to a
//! scoped thread pool: workers claim morsels from a shared atomic counter
//! (morsel-driven parallelism, Leis et al.), so a slow morsel never
//! stalls the others. A plan that is a UNION ALL over sample tables puts
//! all of its scans into one round — one spawn/join for the plan, not one
//! per table — and a round too small to repay a spawn runs on the
//! caller's thread. The per-morsel results come back **per scan, in
//! morsel order**, which makes downstream folds deterministic: float
//! aggregate merges are not associative, so the only way `--threads 8`
//! can be bit-identical to `--threads 1` is for both to compute the same
//! per-morsel partials and combine them in the same order. The executor
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
use aqp_storage::morsel::{Morsel, MorselIter};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A round of fewer morsels than this runs inline on the caller's thread.
///
/// Measured on the 2-vCPU benchmark host (SALES 500k, 4096-row morsels,
/// sample plans of 3 tables grown from 6 to 32 morsels by raising the
/// sampling rate; inline and one-helper processes run in turn, p50 over
/// the benchmark's narrow and wide templates — DESIGN.md §9 has the
/// table): narrow plans (1–2 grouping columns) answer 10–20 % faster
/// inline up to 14 morsels and 20 % faster with a helper from 16; wide
/// plans (3–4 columns, hundreds of groups) stay faster inline up to 22
/// and tie at 24. One morsel of a sampled group-by costs 20–40 µs;
/// spawning and joining one scoped worker costs 60–80 µs on the spot and
/// more afterwards: the kernels' thread-local scratch buffers — up to
/// ~2 MB of direct-indexed accumulator on a wide plan — are rebuilt by
/// every new helper but stay warm on a connection thread that runs
/// inline. (A helper's partials are two buffers per morsel, so freeing
/// them on the control thread no longer counts.) Not a setting: the
/// break-even moves with morsel cost and the host's spawn cost, not with
/// anything a user knows.
const INLINE_BELOW_MORSELS: usize = 16;

/// Run `work` over every morsel of `0..rows` on up to `threads` scoped
/// worker threads, returning the per-morsel results in morsel order: a
/// [`run_round`] of one scan, without a cancellation token.
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
/// identical morsels no matter how many threads run. With `threads <= 1`,
/// or fewer than `INLINE_BELOW_MORSELS` morsels in the whole round, no
/// thread is spawned.
///
/// A [`CancelToken`] is checked at every morsel **claim point**: a worker
/// about to claim its next morsel first checks the token and stops
/// claiming once it has tripped (explicit cancel or deadline), so a
/// timed-out query frees its threads within one morsel.
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
    let counts: Vec<usize> = scans.iter().map(MorselIter::count_total).collect();
    let total: usize = counts.iter().sum();
    let workers = if total < INLINE_BELOW_MORSELS { 1 } else { threads.clamp(1, total) };

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
    let claim_loop = || {
        let mut mine = Vec::new();
        while !cancel.is_some_and(CancelToken::is_cancelled) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match locate(i) {
                Some((scan, m)) => mine.push((i, scan, work(scan, m))),
                None => break,
            }
        }
        mine
    };
    let per_worker: Vec<Vec<(usize, usize, T)>> = if workers == 1 {
        vec![claim_loop()]
    } else {
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..workers).map(|_| s.spawn(claim_loop)).collect();
            let mut all = vec![claim_loop()];
            all.extend(spawned.into_iter().map(|h| h.join().expect("morsel worker panicked")));
            all
        })
    };

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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn small_rounds_spawn_no_thread() {
        let caller = std::thread::current().id();
        let ran_on = |total_morsels: usize, threads: usize| {
            let scans = [MorselIter::new(total_morsels - 1, 1), MorselIter::new(1, 1)];
            let round = run_round(&scans, threads, None, |_, _| std::thread::current().id());
            round.results.concat()
        };
        assert!(ran_on(INLINE_BELOW_MORSELS - 1, 8).iter().all(|&id| id == caller));
        assert!(ran_on(64, 1).iter().all(|&id| id == caller));
        // At the cutoff the round has a helper. Each of the two threads, on
        // its first morsel, waits until the other has claimed one too, so
        // the check does not depend on which thread the schedule favours
        // (and times out, rather than hangs, if there is no helper).
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Mutex};
        let (to_helper, from_caller) = mpsc::channel();
        let (to_caller, from_helper) = mpsc::channel();
        let (from_caller, from_helper) = (Mutex::new(from_caller), Mutex::new(from_helper));
        let arrived = [AtomicBool::new(false), AtomicBool::new(false)];
        let round = run_round(&one(INLINE_BELOW_MORSELS, 1), 2, None, |_, _| {
            let (me, tell, hear) = if std::thread::current().id() == caller {
                (0, &to_helper, &from_helper)
            } else {
                (1, &to_caller, &from_caller)
            };
            if arrived[me].swap(true, Ordering::SeqCst) {
                return true;
            }
            let _ = tell.send(());
            let patience = std::time::Duration::from_secs(10);
            hear.lock().unwrap().recv_timeout(patience).is_ok()
        });
        assert!(round.results[0].iter().all(|&met| met), "caller and helper never met");
        assert_eq!(round.schedules[0].claims.len(), 2, "the caller and one helper");
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
            // 40 morsels (threaded) and 4 (inline).
            let round = run_round(&one(rows, 256), 4, Some(&token), |_, m| m.index);
            assert!(round.cancelled);
            assert!(round.results[0].is_empty(), "no morsel claimed after a pre-tripped token");
        }
    }
}

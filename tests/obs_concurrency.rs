//! Concurrency stress for the observability runtime: counters and
//! histograms hammered from the morsel thread pool must lose nothing —
//! atomic totals are exact, not sampled.
//!
//! Each test uses a private [`obs::Registry`] so the tests (which the
//! harness runs on parallel threads) cannot perturb each other through
//! the process-global registry.

use aqp::obs;
use aqp::query::parallel::run_morsels;
use aqp::prelude::*;
use aqp::serving::{Client, Request, Response, RetryPolicy, Server, ServerConfig};

/// Every worker increments shared counters and observes into a shared
/// histogram; the final totals must equal the arithmetic sum regardless
/// of thread interleaving.
#[test]
fn counters_and_histograms_are_exact_under_morsel_parallelism() {
    obs::set_enabled(true);
    let rows = 100_000;
    let morsel = 1_024;

    for threads in [1usize, 2, 4, 8] {
        let registry = obs::Registry::new();
        let counter = registry.counter("obs_stress_total", &[("test", "concurrency")]);
        let by_rows = registry.counter("obs_stress_rows_total", &[("test", "concurrency")]);
        let hist = registry.histogram("obs_stress_seconds", &[("test", "concurrency")]);
        let per_morsel = run_morsels(rows, morsel, threads, |m| {
            // Handles were hoisted outside; workers only touch atomics —
            // the same discipline the instrumented executor follows.
            for row in m.start..m.end {
                counter.inc();
                hist.observe((row % 977 + 1) as u64);
            }
            by_rows.inc_by((m.end - m.start) as u64);
            m.end - m.start
        });
        let morsel_sum: usize = per_morsel.iter().sum();
        assert_eq!(morsel_sum, rows);
        assert_eq!(counter.get(), rows as u64, "lost increments at {threads} threads");
        assert_eq!(by_rows.get(), rows as u64);
        assert_eq!(hist.count(), rows as u64, "lost observations at {threads} threads");
        // Exact sum: sum over 0..rows of (row % 977 + 1).
        let expect_sum: u64 = (0..rows).map(|r| (r % 977 + 1) as u64).sum();
        assert_eq!(hist.sum(), expect_sum);
    }
}

/// Quantiles from a contended histogram stay within the structural
/// relative-error bound of the log-linear buckets (≤12.5%).
#[test]
fn histogram_quantiles_bounded_error_under_contention() {
    obs::set_enabled(true);
    let registry = obs::Registry::new();
    let hist = registry.histogram("obs_stress_quantile_seconds", &[]);
    let n = 64_000usize;
    run_morsels(n, 512, 8, |m| {
        for row in m.start..m.end {
            // Uniform values 1..=n: the true p50 is n/2.
            hist.observe((row + 1) as u64);
        }
    });
    assert_eq!(hist.count(), n as u64);
    let p50 = hist.quantile(0.5) as f64;
    let truth = n as f64 / 2.0;
    assert!(
        (p50 - truth).abs() / truth < 0.15,
        "p50 {p50} vs true median {truth}"
    );
}

/// Registry snapshots taken while workers are recording remain
/// internally consistent: counters never go backwards across snapshots,
/// and the final snapshot sees every increment.
#[test]
fn snapshot_under_load_is_monotone() {
    obs::set_enabled(true);
    let registry = obs::Registry::new();
    let counter = registry.counter("obs_stress_monotone_total", &[]);
    let mut last = 0u64;
    run_morsels(32_768, 256, 4, |m| {
        for _ in m.start..m.end {
            counter.inc();
        }
    });
    for _ in 0..4 {
        let snap = registry.snapshot();
        let v = snap.counter_total("obs_stress_monotone_total");
        assert!(v >= last, "counter went backwards: {last} -> {v}");
        last = v;
    }
    assert_eq!(last, 32_768);
}

/// The flight-recorder ring under concurrent writers keeps exactly the
/// newest N records and never tears one: every retained record is
/// internally consistent (trace id, rows_scanned, total and stage sum
/// all derived from the same sequence number), and each thread's
/// retained records appear in its push order.
#[test]
fn flight_ring_wraps_concurrently_without_tearing() {
    obs::set_enabled(true);
    let cap = 64usize;
    let threads = 8usize;
    let per_thread = 200u64;
    let recorder = obs::FlightRecorder::new(cap);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let recorder = &recorder;
            s.spawn(move || {
                for i in 0..per_thread {
                    let seq = t * 1_000_000 + i;
                    recorder.record(obs::RequestRecord {
                        trace_id: format!("t{t}-{i}"),
                        class: "interactive".into(),
                        outcome: "answer".into(),
                        serving_tier: "primary".into(),
                        cache_hit: false,
                        rows_scanned: seq,
                        total_micros: seq,
                        stages: vec![
                            obs::Stage { name: "read".into(), micros: seq / 2 },
                            obs::Stage { name: "execute".into(), micros: seq - seq / 2 },
                        ],
                        ..obs::RequestRecord::default()
                    });
                }
            });
        }
    });
    let recent = recorder.recent();
    assert_eq!(recent.len(), cap, "ring holds exactly the newest {cap}");
    let mut last_seq_by_thread = vec![None::<u64>; threads];
    for record in &recent {
        let (t, i) = record
            .trace_id
            .strip_prefix('t')
            .and_then(|rest| rest.split_once('-'))
            .map(|(t, i)| (t.parse::<u64>().unwrap(), i.parse::<u64>().unwrap()))
            .expect("trace id shape");
        let seq = t * 1_000_000 + i;
        // No tearing: every field of the record matches the sequence
        // number its trace id claims.
        assert_eq!(record.rows_scanned, seq, "torn rows_scanned in {}", record.trace_id);
        assert_eq!(record.total_micros, seq, "torn total in {}", record.trace_id);
        let stage_sum: u64 = record.stages.iter().map(|s| s.micros).sum();
        assert_eq!(stage_sum, seq, "torn stages in {}", record.trace_id);
        // FIFO eviction: what survives per thread is in push order.
        if let Some(prev) = last_seq_by_thread[t as usize] {
            assert!(seq > prev, "thread {t} records out of order: {prev} then {seq}");
        }
        last_seq_by_thread[t as usize] = Some(seq);
    }
}

/// The global event ring under concurrent writers wraps at its capacity
/// keeping the newest events, and never tears one (message and fields
/// stay from the same `record` call).
#[test]
fn event_ring_wraps_concurrently_without_tearing() {
    obs::set_enabled(true);
    let threads = 8u64;
    let per_thread = 200u64; // 1600 > RING_CAPACITY (1024): forces wrap
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                for i in 0..per_thread {
                    let thread = t.to_string();
                    let seq = i.to_string();
                    obs::event::info(
                        "obs_stress",
                        &format!("e{t}-{i}"),
                        &[("thread", &thread), ("seq", &seq)],
                    );
                }
            });
        }
    });
    let recent = obs::event::recent();
    assert_eq!(recent.len(), obs::event::RING_CAPACITY, "ring wrapped to capacity");
    let mut ours = 0usize;
    let mut last_seq_by_thread = vec![None::<u64>; threads as usize];
    for event in &recent {
        if event.target != "obs_stress" {
            continue; // other tests in this binary may emit events too
        }
        ours += 1;
        let field = |k: &str| {
            event
                .fields
                .iter()
                .find(|(fk, _)| fk == k)
                .map(|(_, v)| v.clone())
                .expect("field present")
        };
        let (t, i): (u64, u64) = (field("thread").parse().unwrap(), field("seq").parse().unwrap());
        assert_eq!(event.message, format!("e{t}-{i}"), "torn event");
        if let Some(prev) = last_seq_by_thread[t as usize] {
            assert!(i > prev, "thread {t} events out of order: {prev} then {i}");
        }
        last_seq_by_thread[t as usize] = Some(i);
    }
    // The newest 1024 of 1600 pushes survive; allow for foreign events
    // but most of the ring must be ours.
    assert!(ours >= obs::event::RING_CAPACITY / 2, "only {ours} stress events retained");
}

/// Snapshots of a server's registry taken while it is answering stay
/// internally consistent — counters are monotone across snapshots — and
/// the final totals equal what the clients saw.
#[test]
fn registry_snapshot_consistent_while_server_answers() {
    obs::set_enabled(true);
    let star = gen_sales(&SalesConfig { fact_rows: 10_000, zipf_z: 1.5, seed: 42 }).unwrap();
    let view = star.denormalize("view").unwrap();
    let system = ResilientSystem::exact_only(view).with_threads(2);
    let server = Server::bind(system, ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let registry = server.registry();
    let join = std::thread::spawn(move || server.run());

    let clients = 4usize;
    let per_client = 10usize;
    let answered: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::new(addr, RetryPolicy::with_seed(0xce11 + c as u64));
                    let mut got = 0usize;
                    for _ in 0..per_client {
                        if let Ok(Response::Answer(_)) = client.request(&Request::query(
                            "SELECT store.region, COUNT(*) AS cnt FROM v GROUP BY store.region",
                        )) {
                            got += 1;
                        }
                    }
                    got
                })
            })
            .collect();
        // Snapshot the server's registry while the workers hammer it:
        // monotone counters, no torn reads.
        let mut last = 0;
        while workers.iter().any(|w| !w.is_finished()) {
            let snap = registry.snapshot();
            let v = snap.counter_total("aqp_server_requests_total");
            assert!(v >= last, "server request counter went backwards: {last} -> {v}");
            last = v;
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    handle.shutdown();
    join.join().unwrap().unwrap();

    assert_eq!(answered, clients * per_client, "every request answered");
    let after = registry.snapshot();
    let total = (clients * per_client) as u64;
    assert_eq!(after.counter_total("aqp_server_requests_total"), total, "one count per request");
    assert_eq!(
        after.counter_value("aqp_server_requests_total", &[("class", "interactive"), ("outcome", "answer")]),
        Some(total)
    );
    let cache = after.counter_total("aqp_cache_hit_total") + after.counter_total("aqp_cache_miss_total");
    assert_eq!(cache, total, "each query decided once by the cache");
}

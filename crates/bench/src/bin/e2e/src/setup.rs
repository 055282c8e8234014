//! The fixed set-up every workload shares, timed stage by stage.
//!
//! Set-up comes in steps so that template selection (which needs the view
//! but is benchmark work, not product work) can run in between without
//! being counted: [`build_view`], [`build_sampler`], then [`assemble`].

use aqp::prelude::*;
use aqp::serving::{CacheConfig, Server, ServerConfig, ServerReport, ShutdownHandle};
use std::time::Instant;

/// SALES fact rows. Large enough that an exact scan (~2.5 ms) dwarfs the
/// wire round trip (~0.15 ms), so `exact-scan` really is per-row cost.
pub const FACT_ROWS: usize = 500_000;
/// Skew of the SALES generator (its documented default).
pub const ZIPF_Z: f64 = 1.5;
/// Base sampling rate `r` — the micro-scale calibration documented in
/// `crates/bench/src/lib.rs` (same rows-per-group regime as the paper's 1 %).
pub const BASE_RATE: f64 = 0.04;
/// Allocation ratio γ = t/r, the paper's recommendation.
pub const GAMMA: f64 = 0.5;
/// Executor threads everywhere: what `serve` defaults to on a 2-core host.
pub const THREADS: usize = 2;
/// The FROM name in every emitted statement (the server ignores it when
/// planning but folds it into cache keys).
pub const VIEW_NAME: &str = "sales_view";
/// Confidence level of every request (the server's default).
pub const CONFIDENCE: f64 = 0.95;
/// Answer-cache capacity on `cache-churn`: a quarter of its 512 templates,
/// so LRU eviction runs on most misses.
pub const CACHE_CAPACITY: usize = 128;

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub denormalize_s: f64,
    pub cluster_s: f64,
    pub zonemap_s: f64,
    pub sgs_build_s: f64,
    pub assemble_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.gen_s + self.denormalize_s + self.cluster_s + self.zonemap_s + self.sgs_build_s + self.assemble_s
    }
}

/// `f`'s result and how long it took, seconds.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let (out, took) = secs(f);
    *slot = took;
    out
}

/// Generate SALES, join it into the wide view, and cluster the view by
/// `sales.timekey`: fact tables load in date order, and without that
/// order no zone map on SALES ever excludes a block.
pub fn build_view(seed: u64, times: &mut SetupTimes) -> Table {
    let star = timed(&mut times.gen_s, || {
        gen_sales(&SalesConfig { fact_rows: FACT_ROWS, zipf_z: ZIPF_Z, seed }).expect("gen_sales")
    });
    let view = timed(&mut times.denormalize_s, || star.denormalize(VIEW_NAME).expect("denormalize"));
    drop(star);
    let clustered = timed(&mut times.cluster_s, || {
        let keys = view
            .column_by_name("sales.timekey")
            .expect("sales.timekey exists")
            .as_int64()
            .expect("sales.timekey is Int64");
        let mut order: Vec<usize> = (0..view.num_rows()).collect();
        order.sort_by_key(|&i| keys[i]);
        view.gather(VIEW_NAME, &order)
    });
    drop(view);
    timed(&mut times.zonemap_s, || {
        clustered.zone_maps();
    });
    clustered
}

/// Build the small-group sample family over `view`.
pub fn build_sampler(view: &Table, seed: u64, times: &mut SetupTimes) -> SmallGroupSampler {
    timed(&mut times.sgs_build_s, || {
        let config = SmallGroupConfig { seed, ..SmallGroupConfig::with_rates(BASE_RATE, GAMMA) };
        SmallGroupSampler::build(view, config).expect("SmallGroupSampler::build")
    })
}

/// Wrap the family and the view in the degradation ladder the server
/// serves from.
pub fn assemble(sampler: SmallGroupSampler, view: Table, times: &mut SetupTimes) -> ResilientSystem {
    timed(&mut times.assemble_s, || ResilientSystem::from_sampler(sampler).with_view(view).with_threads(THREADS))
}

/// A server running on its own thread, on a loopback port the OS chose.
pub struct RunningServer {
    pub addr: String,
    pub bind_s: f64,
    shutdown: ShutdownHandle,
    thread: std::thread::JoinHandle<std::io::Result<ServerReport>>,
}

/// `ServerConfig::default()` except the answer cache, which each
/// workload states: off, or on at [`CACHE_CAPACITY`].
pub fn start_server(system: ResilientSystem, cache_on: bool) -> RunningServer {
    let cache = if cache_on {
        CacheConfig { capacity: CACHE_CAPACITY, ttl: None, enabled: true }
    } else {
        CacheConfig::disabled()
    };
    let config = ServerConfig { cache, ..ServerConfig::default() };
    let t = Instant::now();
    let server = Server::bind(system, config).expect("bind loopback");
    let bind_s = t.elapsed().as_secs_f64();
    let addr = server.local_addr().expect("local_addr").to_string();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());
    RunningServer { addr, bind_s, shutdown, thread }
}

impl RunningServer {
    /// Drain the server and wait for its thread; the system it owned is
    /// freed before this returns.
    pub fn stop(self) -> ServerReport {
        self.shutdown.shutdown();
        self.thread.join().expect("server thread panicked").expect("server run")
    }
}

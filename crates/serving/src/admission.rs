//! Admission control: bounded queues, concurrency caps, load shedding.
//!
//! Each [`ContractClass`] gets its own concurrency cap and bounded wait
//! queue. A request is **admitted** immediately when the class has a free
//! execution slot, **queued** (blocking the connection thread, which is
//! the natural backpressure point for a thread-per-connection server)
//! while the queue has room, and **shed** with an explicit retry hint the
//! moment the queue is full — the server's load response is a fast,
//! deterministic `shed` frame, never an unbounded queue or a TCP-level
//! stall. A queued request whose deadline expires before a slot frees is
//! rejected as a queue timeout: it never reaches the executor, so a
//! doomed query costs nothing but its queue slot.
//!
//! The retry hint is derived from observed service times: an EWMA of
//! per-class execution latency times the number of waiters ahead of the
//! retrying client, clamped to a sane range. Under steady overload the
//! hints spread retries instead of synchronizing them.
//!
//! The controller records `aqp_server_{admitted,queue_timeout}_total`
//! and the `aqp_server_{inflight,queue_depth}` gauges per class into the
//! registry it is built with; a shed is counted once, by the server, as
//! `aqp_server_requests_total{outcome="shed"}`.

use crate::protocol::ContractClass;
use aqp_obs::Registry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-class admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassLimits {
    /// Maximum concurrently executing requests.
    pub max_inflight: usize,
    /// Maximum requests waiting for a slot; the next request is shed.
    pub max_queue: usize,
}

/// Admission limits for both classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Limits for [`ContractClass::Interactive`].
    pub interactive: ClassLimits,
    /// Limits for [`ContractClass::Batch`].
    pub batch: ClassLimits,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            interactive: ClassLimits { max_inflight: 4, max_queue: 8 },
            batch: ClassLimits { max_inflight: 2, max_queue: 2 },
        }
    }
}

#[derive(Debug, Default)]
struct ClassState {
    inflight: usize,
    queued: usize,
}

#[derive(Debug)]
struct Shared {
    cfg: AdmissionConfig,
    registry: Arc<Registry>,
    state: Mutex<[ClassState; 2]>,
    freed: Condvar,
    /// EWMA of service time per class, milliseconds, stored as f64 bits.
    ewma_ms: [AtomicU64; 2],
}

fn idx(class: ContractClass) -> usize {
    match class {
        ContractClass::Interactive => 0,
        ContractClass::Batch => 1,
    }
}

/// Outcome of one admission attempt.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// A slot was granted; execute while holding the permit.
    Admitted(Permit),
    /// Queue full: the request is shed. Retry after the hinted back-off.
    Shed {
        /// Suggested back-off, milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired while waiting in the queue.
    QueueTimeout,
}

/// RAII execution slot: dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit {
    shared: Arc<Shared>,
    class: ContractClass,
    started: Instant,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.shared.observe_service_ms(self.class, elapsed_ms);
        let mut st = self.shared.state.lock().expect("admission state poisoned");
        st[idx(self.class)].inflight -= 1;
        self.shared.gauges(self.class, &st[idx(self.class)]);
        drop(st);
        self.shared.freed.notify_all();
    }
}

impl Shared {
    fn gauges(&self, class: ContractClass, st: &ClassState) {
        let label = &[("class", class.as_str())][..];
        self.registry.gauge("aqp_server_inflight", label).set(st.inflight as i64);
        self.registry.gauge("aqp_server_queue_depth", label).set(st.queued as i64);
    }

    fn observe_service_ms(&self, class: ContractClass, ms: f64) {
        // Racy read-modify-write is fine: the EWMA feeds a retry *hint*.
        let cell = &self.ewma_ms[idx(class)];
        let prev = f64::from_bits(cell.load(Ordering::Relaxed));
        let next = if prev == 0.0 { ms } else { 0.8 * prev + 0.2 * ms };
        cell.store(next.to_bits(), Ordering::Relaxed);
    }

    fn retry_hint_ms(&self, class: ContractClass, waiters: usize) -> u64 {
        let ewma = f64::from_bits(self.ewma_ms[idx(class)].load(Ordering::Relaxed));
        let per_slot = if ewma > 0.0 { ewma } else { 50.0 };
        let slots = self.cfg_for(class).max_inflight.max(1) as f64;
        ((per_slot * (waiters as f64 + 1.0) / slots) as u64).clamp(10, 5_000)
    }

    fn cfg_for(&self, class: ContractClass) -> ClassLimits {
        match class {
            ContractClass::Interactive => self.cfg.interactive,
            ContractClass::Batch => self.cfg.batch,
        }
    }
}

/// The admission controller shared by all connection threads.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    shared: Arc<Shared>,
}

impl AdmissionController {
    /// Build a controller with the given limits, recording into a
    /// registry of its own.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self::with_registry(cfg, Arc::default())
    }

    /// Build a controller that records into `registry` (a server's).
    pub fn with_registry(cfg: AdmissionConfig, registry: Arc<Registry>) -> Self {
        AdmissionController {
            shared: Arc::new(Shared {
                cfg,
                registry,
                state: Mutex::new([ClassState::default(), ClassState::default()]),
                freed: Condvar::new(),
                ewma_ms: [AtomicU64::new(0), AtomicU64::new(0)],
            }),
        }
    }

    /// Try to admit a request of `class`, blocking in the bounded queue
    /// until a slot frees, `deadline` passes, or the queue is full.
    pub fn admit(&self, class: ContractClass, deadline: Option<Instant>) -> AdmitOutcome {
        let limits = self.shared.cfg_for(class);
        let label = &[("class", class.as_str())][..];
        let mut st = self.shared.state.lock().expect("admission state poisoned");

        if st[idx(class)].inflight < limits.max_inflight {
            st[idx(class)].inflight += 1;
            self.shared.gauges(class, &st[idx(class)]);
            drop(st);
            self.shared.registry.counter("aqp_server_admitted_total", label).inc();
            return AdmitOutcome::Admitted(self.permit(class));
        }

        if st[idx(class)].queued >= limits.max_queue {
            let waiters = st[idx(class)].queued;
            drop(st);
            return AdmitOutcome::Shed {
                retry_after_ms: self.shared.retry_hint_ms(class, waiters),
            };
        }

        st[idx(class)].queued += 1;
        self.shared.gauges(class, &st[idx(class)]);
        loop {
            if st[idx(class)].inflight < limits.max_inflight {
                st[idx(class)].queued -= 1;
                st[idx(class)].inflight += 1;
                self.shared.gauges(class, &st[idx(class)]);
                drop(st);
                self.shared.registry.counter("aqp_server_admitted_total", label).inc();
                return AdmitOutcome::Admitted(self.permit(class));
            }
            let wait = match deadline {
                None => Duration::from_millis(100),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) => left.min(Duration::from_millis(100)),
                    None => {
                        st[idx(class)].queued -= 1;
                        self.shared.gauges(class, &st[idx(class)]);
                        drop(st);
                        self.shared.registry.counter("aqp_server_queue_timeout_total", label).inc();
                        return AdmitOutcome::QueueTimeout;
                    }
                },
            };
            let (guard, _) = self
                .shared
                .freed
                .wait_timeout(st, wait)
                .expect("admission state poisoned");
            st = guard;
        }
    }

    fn permit(&self, class: ContractClass) -> Permit {
        Permit {
            shared: Arc::clone(&self.shared),
            class,
            started: Instant::now(),
        }
    }

    /// Record an observed service time (used by tests; permits record
    /// their own on drop).
    pub fn observe_service_ms(&self, class: ContractClass, ms: f64) {
        self.shared.observe_service_ms(class, ms);
    }

    /// Current (inflight, queued) for a class — test/report visibility.
    pub fn load(&self, class: ContractClass) -> (usize, usize) {
        let st = self.shared.state.lock().expect("admission state poisoned");
        (st[idx(class)].inflight, st[idx(class)].queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tiny() -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            interactive: ClassLimits { max_inflight: 1, max_queue: 1 },
            batch: ClassLimits { max_inflight: 1, max_queue: 0 },
        })
    }

    #[test]
    fn admits_up_to_cap_then_sheds_past_queue() {
        let ctl = tiny();
        let p1 = match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Admitted(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        assert_eq!(ctl.load(ContractClass::Interactive), (1, 0));

        // Slot busy, queue empty: a second request would queue; fill the
        // queue from another thread, then a third is shed.
        let ctl2 = ctl.clone();
        let queued = std::thread::spawn(move || {
            matches!(ctl2.admit(ContractClass::Interactive, None), AdmitOutcome::Admitted(_))
        });
        // Wait for the waiter to register.
        for _ in 0..200 {
            if ctl.load(ContractClass::Interactive).1 == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(ctl.load(ContractClass::Interactive).1, 1, "one waiter queued");
        match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Shed { retry_after_ms } => assert!(retry_after_ms >= 10),
            other => panic!("expected shed, got {other:?}"),
        }
        drop(p1);
        assert!(queued.join().unwrap(), "queued request admitted after slot freed");
    }

    #[test]
    fn zero_queue_class_sheds_immediately() {
        let ctl = tiny();
        let _p = match ctl.admit(ContractClass::Batch, None) {
            AdmitOutcome::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            ctl.admit(ContractClass::Batch, None),
            AdmitOutcome::Shed { .. }
        ));
    }

    #[test]
    fn queued_request_times_out_at_deadline() {
        let ctl = tiny();
        let _p = match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        let deadline = Instant::now() + Duration::from_millis(30);
        let t0 = Instant::now();
        match ctl.admit(ContractClass::Interactive, Some(deadline)) {
            AdmitOutcome::QueueTimeout => {}
            other => panic!("expected queue timeout, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(25));
        assert_eq!(ctl.load(ContractClass::Interactive).1, 0, "queue slot released");
    }

    #[test]
    fn classes_are_isolated() {
        let ctl = tiny();
        let _pi = match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        // Interactive saturated; batch still admits.
        assert!(matches!(
            ctl.admit(ContractClass::Batch, None),
            AdmitOutcome::Admitted(_)
        ));
    }

    #[test]
    fn retry_hint_tracks_service_time() {
        let ctl = tiny();
        ctl.observe_service_ms(ContractClass::Interactive, 400.0);
        let _p = match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        let ctl2 = ctl.clone();
        let _waiter = std::thread::spawn(move || {
            let _ = ctl2.admit(
                ContractClass::Interactive,
                Some(Instant::now() + Duration::from_millis(300)),
            );
        });
        for _ in 0..200 {
            if ctl.load(ContractClass::Interactive).1 == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match ctl.admit(ContractClass::Interactive, None) {
            AdmitOutcome::Shed { retry_after_ms } => {
                assert!(
                    retry_after_ms >= 400,
                    "hint {retry_after_ms} reflects 400ms EWMA with a waiter ahead"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn many_threads_never_exceed_cap() {
        let ctl = AdmissionController::new(AdmissionConfig {
            interactive: ClassLimits { max_inflight: 3, max_queue: 64 },
            batch: ClassLimits { max_inflight: 1, max_queue: 0 },
        });
        let peak = Arc::new(AtomicUsize::new(0));
        let running = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let ctl = ctl.clone();
                let peak = Arc::clone(&peak);
                let running = Arc::clone(&running);
                s.spawn(move || {
                    for _ in 0..10 {
                        if let AdmitOutcome::Admitted(p) = ctl.admit(ContractClass::Interactive, None) {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_micros(200));
                            running.fetch_sub(1, Ordering::SeqCst);
                            drop(p);
                        }
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "inflight never exceeded the cap");
    }
}

//! A blocking client with bounded retry and backoff.
//!
//! The server's load shedding only works if clients *cooperate*: a shed
//! response that triggers an immediate blind retry converts admission
//! control into a retry storm. This client implements the cooperative
//! half of the contract — `shed` responses and transport errors are
//! retried at most [`RetryPolicy::max_attempts`] times with exponential
//! backoff, never sooner than the server's `retry_after_ms` hint, and
//! with deterministic jitter (a seeded xorshift, not wall-clock entropy)
//! so a thundering herd of clients spreads out instead of re-arriving in
//! lock step. `timeout` and `error` responses are *not* retried: the
//! server already spent a deadline or rejected the request on its
//! merits, and trying again buys nothing.

use crate::protocol::{write_frame, FrameReader, Request, Response};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Retry/backoff configuration.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retry.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Jitter seed — deterministic per client, so tests reproduce and
    /// distinct clients (distinct seeds) de-synchronize.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — every shed or transport error is
    /// surfaced immediately.
    pub fn no_retry() -> Self {
        RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }
    }

    /// The default policy with a caller-chosen jitter seed.
    pub fn with_seed(seed: u64) -> Self {
        RetryPolicy { seed, ..RetryPolicy::default() }
    }
}

/// Why a request ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure on the final attempt.
    Io(io::Error),
    /// The peer sent a frame that did not decode as a [`Response`].
    Protocol(String),
    /// Every attempt was shed; the last hint is carried for the caller.
    Shed {
        /// The server's final `retry_after_ms` hint.
        retry_after_ms: u64,
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Shed { retry_after_ms, attempts } => write!(
                f,
                "shed after {attempts} attempts; server suggests retrying in {retry_after_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// What this client session spent on cooperation: every shed response
/// received, every backoff actually scheduled, and the total time slept
/// in backoff. The same facts feed `aqp_client_shed_total` and
/// `aqp_client_retry_total{reason}` in the global registry; this struct
/// is the per-client view the CLI's `--stats` line prints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests that completed with a terminal response (including
    /// server-side `timeout`/`error` frames).
    pub requests: u64,
    /// Shed responses received (each may or may not have been retried).
    pub sheds: u64,
    /// Retries actually scheduled after a shed response.
    pub retries_shed: u64,
    /// Retries actually scheduled after a transport error.
    pub retries_io: u64,
    /// Total wall time spent sleeping in backoff, milliseconds.
    pub backoff_ms: u64,
}

impl ClientStats {
    /// One-line human summary (the `client --stats` output).
    pub fn summary(&self) -> String {
        format!(
            "requests={} sheds={} retries(shed)={} retries(io)={} backoff_ms={}",
            self.requests, self.sheds, self.retries_shed, self.retries_io, self.backoff_ms
        )
    }
}

/// A blocking protocol client over one TCP connection (re-established
/// per attempt after transport errors).
#[derive(Debug)]
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    /// The stream and the frame reader positioned on it; dropped together.
    conn: Option<(TcpStream, FrameReader)>,
    rng: u64,
    stats: ClientStats,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:7878`).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        // xorshift has a fixed point at 0; remap only that seed.
        let rng = if policy.seed == 0 { 0x9e3779b97f4a7c15 } else { policy.seed };
        Client { addr: addr.into(), policy, conn: None, rng, stats: ClientStats::default() }
    }

    /// Cumulative retry/shed statistics for this client's lifetime.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn connect(&mut self) -> io::Result<&mut (TcpStream, FrameReader)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some((stream, FrameReader::new()));
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Next jitter factor in [0, 1): deterministic xorshift64.
    fn jitter(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Backoff before retry number `retry` (1-based), honouring the
    /// server's hint as a floor and adding up to 50% jitter.
    /// `max_backoff` caps only the client's own exponential component —
    /// the server's `retry_after_ms` hint is an absolute floor that is
    /// never clamped, so an overloaded server asking for a 5s back-off
    /// gets it even with the default 2s `max_backoff`.
    fn backoff(&mut self, retry: u32, floor_ms: u64) -> Duration {
        let base = self.policy.base_backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (retry - 1).min(16));
        let ms = exp.min(self.policy.max_backoff.as_millis() as u64).max(floor_ms);
        let jittered = ms as f64 * (1.0 + 0.5 * self.jitter());
        Duration::from_millis(jittered as u64)
    }

    /// Send one request and return its terminal response, retrying shed
    /// responses and transport errors per the policy. `Ok` responses
    /// include `timeout`/`error` frames — those are the server's final
    /// word, not client failures.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.to_json();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(&payload) {
                Ok(Response::Shed { retry_after_ms, class, trace_id }) => {
                    self.stats.sheds += 1;
                    aqp_obs::counter("aqp_client_shed_total", &[]).inc();
                    if attempt >= self.policy.max_attempts {
                        return Err(ClientError::Shed { retry_after_ms, attempts: attempt });
                    }
                    let _ = (class, trace_id);
                    // Counted only when a retry is actually scheduled —
                    // a final shed is an exhausted request, not a retry.
                    self.stats.retries_shed += 1;
                    aqp_obs::counter("aqp_client_retry_total", &[("reason", "shed")]).inc();
                    let wait = self.backoff(attempt, retry_after_ms);
                    self.stats.backoff_ms += wait.as_millis() as u64;
                    std::thread::sleep(wait);
                }
                Ok(response) => {
                    self.stats.requests += 1;
                    return Ok(response);
                }
                Err(ClientError::Io(e)) => {
                    // The connection is suspect after any transport error;
                    // the next attempt reconnects from scratch.
                    self.conn = None;
                    aqp_obs::counter("aqp_client_io_retry_total", &[]).inc();
                    if attempt >= self.policy.max_attempts {
                        return Err(ClientError::Io(e));
                    }
                    self.stats.retries_io += 1;
                    aqp_obs::counter("aqp_client_retry_total", &[("reason", "io")]).inc();
                    let wait = self.backoff(attempt, 0);
                    self.stats.backoff_ms += wait.as_millis() as u64;
                    std::thread::sleep(wait);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn attempt(&mut self, payload: &str) -> Result<Response, ClientError> {
        let (stream, reader) = self.connect()?;
        write_frame(stream, payload)?;
        let frame = reader
            .read_blocking(stream)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let response = Response::from_json(&frame).map_err(ClientError::Protocol);
        reader.recycle(frame);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, ContractClass};
    use std::net::TcpListener;

    /// A scripted server: answers each request with the next scripted
    /// response (repeating the last once the script runs out), accepting
    /// reconnects until the script is exhausted and the client hangs up.
    fn scripted_server(responses: Vec<Response>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || {
            let mut queue = responses.into_iter().peekable();
            let mut last: Option<Response> = None;
            loop {
                let Ok((mut stream, _)) = listener.accept() else { return };
                while let Ok(Some(_)) = read_frame(&mut stream) {
                    let resp = queue
                        .next()
                        .or_else(|| last.clone())
                        .expect("script exhausted before first response");
                    last = Some(resp.clone());
                    if write_frame(&mut stream, &resp.to_json()).is_err() {
                        break;
                    }
                }
                if queue.peek().is_none() {
                    return; // script done and the connection closed
                }
            }
        });
        (addr, join)
    }

    #[test]
    fn shed_then_success_retries_through() {
        let (addr, join) = scripted_server(vec![
            Response::Shed { retry_after_ms: 5, class: "interactive".into(), trace_id: String::new() },
            Response::Shed { retry_after_ms: 5, class: "interactive".into(), trace_id: String::new() },
            Response::Pong,
        ]);
        let mut client = Client::new(addr, RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            seed: 7,
        });
        match client.request(&Request::Ping).unwrap() {
            Response::Pong => {}
            other => panic!("{other:?}"),
        }
        drop(client); // hang up so the scripted server's read loop ends
        join.join().unwrap();
    }

    #[test]
    fn shed_exhausts_into_error_with_hint() {
        let (addr, _join) = scripted_server(vec![
            Response::Shed { retry_after_ms: 17, class: "batch".into(), trace_id: String::new() },
            Response::Shed { retry_after_ms: 17, class: "batch".into(), trace_id: String::new() },
        ]);
        let mut client = Client::new(addr, RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 3,
        });
        match client.request(&Request::Ping) {
            Err(ClientError::Shed { retry_after_ms, attempts }) => {
                assert_eq!(retry_after_ms, 17);
                assert_eq!(attempts, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_and_error_are_terminal_not_retried() {
        let (addr, _join) = scripted_server(vec![Response::Timeout {
            message: "deadline".into(),
            trace_id: String::new(),
        }]);
        let mut client = Client::new(addr, RetryPolicy::default());
        match client.request(&Request::query("SELECT COUNT(*) FROM v")).unwrap() {
            Response::Timeout { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn connection_refused_surfaces_after_retries() {
        // Bind then drop to get an address that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = Client::new(addr, RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 11,
        });
        match client.request(&Request::Ping) {
            Err(ClientError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn server_hint_floor_survives_max_backoff_clamp() {
        // max_backoff (2s default) caps only the client's exponential
        // component; a 5s server hint must still be honoured in full.
        let mut client = Client::new("127.0.0.1:1", RetryPolicy::with_seed(9));
        let wait = client.backoff(1, 5_000);
        assert!(wait >= Duration::from_millis(5_000), "hint floored: {wait:?}");
        assert!(wait <= Duration::from_millis(7_500), "jitter bounded: {wait:?}");

        // Without a hint the exponential component is still clamped.
        let mut client = Client::new("127.0.0.1:1", RetryPolicy::with_seed(9));
        let wait = client.backoff(16, 0);
        assert!(wait <= Duration::from_millis(3_000), "2s cap + 50% jitter: {wait:?}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = Client::new("127.0.0.1:1", RetryPolicy::with_seed(42));
        let mut b = Client::new("127.0.0.1:1", RetryPolicy::with_seed(42));
        let mut c = Client::new("127.0.0.1:1", RetryPolicy::with_seed(43));
        let ja: Vec<f64> = (0..4).map(|_| a.jitter()).collect();
        let jb: Vec<f64> = (0..4).map(|_| b.jitter()).collect();
        let jc: Vec<f64> = (0..4).map(|_| c.jitter()).collect();
        assert_eq!(ja, jb, "same seed, same sequence");
        assert_ne!(ja, jc, "different seed, different sequence");
        assert!(ja.iter().all(|j| (0.0..1.0).contains(j)));
    }

    #[test]
    fn half_open_server_read_eof_is_io_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || {
            // Accept, read the request, close without answering — twice.
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let _ = read_frame(&mut stream);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        });
        let mut client = Client::new(addr, RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            seed: 5,
        });
        match client.request(&Request::Query {
            sql: "SELECT COUNT(*) FROM v".into(),
            class: ContractClass::Batch,
            deadline_ms: None,
            row_budget: None,
            confidence: None,
            max_rel_error: None,
            trace_id: None,
        }) {
            Err(ClientError::Io(_)) => {}
            other => panic!("{other:?}"),
        }
        join.join().unwrap();
    }
}

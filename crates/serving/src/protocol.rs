//! Wire protocol: length-prefixed JSON frames.
//!
//! Each message is one *frame*: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Framing keeps the parser
//! trivial and makes partial reads explicit; JSON keeps the protocol
//! inspectable with nothing but `nc` and eyeballs. The codec is
//! [`aqp_obs::json`] — the same hand-rolled writer/reader the trace
//! pipeline uses — so the serving layer stays zero-dependency. Control
//! frames go through its [`Value`] tree; an answer, whose size is set by
//! its group count, is streamed: written straight into one string and
//! read straight off the tokenizer, with no tree in between. The server
//! writes an answer frame from the [`ApproxAnswer`] it computed or shares
//! with the cache ([`ServedAnswer`]); a client decodes it into a
//! [`WireAnswer`]. One function lays out the bytes for both. A cache
//! entry keeps its answer's `groups` member as text ([`GroupsText`]),
//! so a hit writes only the frame's head and copies the rest.
//!
//! Degradation is a *first-class wire concept*: an `ok` response carries
//! the [`aqp_core::ServingTier`] that produced the answer, whether the
//! scan was truncated (`partial`), and whether the deadline forced a
//! cheaper tier (`deadline_limited`); an overloaded server answers
//! `shed` with a `retry_after_ms` hint instead of stalling the client; a
//! missed deadline answers `timeout`. Clients can react to load without
//! any out-of-band channel.

use aqp_core::{ApproxAnswer, ApproxGroup};
use aqp_obs::json::{self, write_escaped, write_f64, Reader, Value};
use aqp_storage::Value as Datum;
use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};
use std::sync::{Arc, OnceLock};

/// Frames larger than this are rejected before allocation — a corrupt
/// or hostile length prefix must not OOM the server.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// The largest buffer a connection keeps between frames. Frames run from
/// a few KB to tens of KB and reuse one allocation; what an outlier near
/// [`MAX_FRAME_BYTES`] grew is freed, not held by an idle connection.
pub(crate) const RETAINED_BUFFER_BYTES: usize = 256 * 1024;

/// Write one frame: 4-byte big-endian length, then the payload, handed
/// to the writer together. On a `TCP_NODELAY` socket two writes are two
/// segments and two wake-ups of the peer's reader; one vectored write is
/// one of each, and copies nothing.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(io::Error::other("frame exceeds MAX_FRAME_BYTES"));
    }
    let header = (bytes.len() as u32).to_be_bytes();
    // A vectored write may stop anywhere (a writer without vectored
    // support takes only the header); finish whatever it left.
    let wrote = loop {
        match w.write_vectored(&[IoSlice::new(&header), IoSlice::new(bytes)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if wrote < header.len() {
        w.write_all(&header[wrote..])?;
    }
    w.write_all(&bytes[wrote.saturating_sub(header.len())..])?;
    w.flush()
}

/// Read one frame from a blocking stream. Returns `Ok(None)` on clean
/// EOF at a frame boundary (the peer closed between messages); mid-frame
/// EOF is an error. A read timeout does not lose bytes, but this function
/// does not return on one either: it keeps what it read and waits for the
/// rest ([`FrameReader::read_blocking`]). To see timeouts, as a server
/// polling for shutdown must, drive a [`FrameReader`] with
/// [`FrameReader::read`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    FrameReader::new().read_blocking(r)
}

/// Outcome of one [`FrameReader::read`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(String),
    /// Clean EOF at a frame boundary (the peer closed between messages).
    Eof,
    /// The read timed out with **zero** bytes of the next frame consumed
    /// — a genuine idle tick; the stream is still at a frame boundary.
    Idle,
    /// The read timed out **mid-frame**: bytes of the current frame are
    /// already buffered in the reader. Call `read` again to resume —
    /// treating this as idle (or abandoning the reader) would desync the
    /// protocol, because the wire position is inside a frame.
    MidFrame,
}

/// Incremental frame reader that survives read timeouts.
///
/// A server polls its sockets with a short read timeout so drain is
/// responsive, but a frame can legitimately arrive split across several
/// timeout windows (slow client, large frame, TCP fragmentation). This
/// reader keeps the partially-read header and payload across
/// `WouldBlock`/`TimedOut` returns, so a timeout never discards consumed
/// bytes: the caller learns whether the connection is truly idle
/// ([`FrameRead::Idle`]) or mid-frame ([`FrameRead::MidFrame`]) and the
/// next call resumes exactly where the stream left off.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Length-prefix bytes accumulated so far.
    header: [u8; 4],
    /// How many of the 4 header bytes are filled.
    header_filled: usize,
    /// Payload buffer, allocated once the header completes.
    payload: Option<Vec<u8>>,
    /// Payload bytes accumulated so far.
    payload_filled: usize,
    /// The last payload's allocation, handed back through
    /// [`FrameReader::recycle`] for the next frame to fill.
    spare: Vec<u8>,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Give a payload this reader returned back once it has been decoded,
    /// so a connection's frames share one buffer (an oversized one is
    /// dropped: see `RETAINED_BUFFER_BYTES`).
    pub fn recycle(&mut self, payload: String) {
        if payload.capacity() <= RETAINED_BUFFER_BYTES {
            self.spare = payload.into_bytes();
        }
    }

    /// [`read_frame`] on a reader kept across frames, so that what
    /// [`FrameReader::recycle`] hands back is used.
    pub fn read_blocking(&mut self, r: &mut impl Read) -> io::Result<Option<String>> {
        loop {
            match self.read(r)? {
                FrameRead::Frame(payload) => return Ok(Some(payload)),
                FrameRead::Eof => return Ok(None),
                // No timeout on a blocking stream should reach here; if one
                // does (caller set a timeout anyway), keep accumulating.
                FrameRead::Idle | FrameRead::MidFrame => {}
            }
        }
    }

    /// Whether bytes of an incomplete frame are buffered.
    pub fn mid_frame(&self) -> bool {
        self.header_filled > 0 || self.payload.is_some()
    }

    /// Advance the frame state machine by reading from `r`. Never
    /// discards consumed bytes: timeouts return [`FrameRead::Idle`] or
    /// [`FrameRead::MidFrame`] and leave the partial frame buffered.
    pub fn read(&mut self, r: &mut impl Read) -> io::Result<FrameRead> {
        // Phase 1: the 4-byte length prefix.
        while self.payload.is_none() {
            if self.header_filled == 4 {
                let len = u32::from_be_bytes(self.header) as usize;
                if len > MAX_FRAME_BYTES {
                    return Err(io::Error::other(format!("frame length {len} exceeds limit")));
                }
                let mut payload = std::mem::take(&mut self.spare);
                payload.clear();
                payload.resize(len, 0);
                self.payload = Some(payload);
                self.payload_filled = 0;
                break;
            }
            match r.read(&mut self.header[self.header_filled..]) {
                Ok(0) if self.header_filled == 0 => return Ok(FrameRead::Eof),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "torn frame header",
                    ))
                }
                Ok(n) => self.header_filled += n,
                Err(e) if timed_out(&e) => {
                    return Ok(if self.header_filled == 0 {
                        FrameRead::Idle
                    } else {
                        FrameRead::MidFrame
                    })
                }
                Err(e) => return Err(e),
            }
        }

        // Phase 2: the payload.
        let payload = self.payload.as_mut().expect("payload allocated in phase 1");
        while self.payload_filled < payload.len() {
            match r.read(&mut payload[self.payload_filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "torn frame payload",
                    ))
                }
                Ok(n) => self.payload_filled += n,
                Err(e) if timed_out(&e) => return Ok(FrameRead::MidFrame),
                Err(e) => return Err(e),
            }
        }

        let bytes = self.payload.take().expect("payload present");
        self.header_filled = 0;
        self.payload_filled = 0;
        String::from_utf8(bytes)
            .map(FrameRead::Frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Whether an I/O error is a read-timeout tick rather than a real
/// transport failure (`WouldBlock` on unix, `TimedOut` on some
/// platforms). `Interrupted` reads are also safe to resume.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Service class a request is admitted under. Interactive requests get
/// the larger concurrency share and the tighter default deadline; batch
/// requests queue behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContractClass {
    /// Latency-sensitive: dashboards, humans, REPLs.
    #[default]
    Interactive,
    /// Throughput-oriented: reports, backfills.
    Batch,
}

impl ContractClass {
    /// Stable wire/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            ContractClass::Interactive => "interactive",
            ContractClass::Batch => "batch",
        }
    }

    /// Parse a wire label (unknown strings default to interactive, the
    /// class with the stricter limits — misdeclared traffic must not
    /// escape admission control by typo).
    pub fn parse(s: &str) -> ContractClass {
        match s {
            "batch" => ContractClass::Batch,
            _ => ContractClass::Interactive,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer a SQL query under the given constraints.
    Query {
        /// The SQL text (the supported SPJA fragment).
        sql: String,
        /// Admission class.
        class: ContractClass,
        /// Per-query deadline in milliseconds, if any.
        deadline_ms: Option<u64>,
        /// Client-requested row-scan cap, if any.
        row_budget: Option<usize>,
        /// Confidence level for intervals (default 0.95).
        confidence: Option<f64>,
        /// Optional relative-error bound on every interval's half-width
        /// (`half_width <= bound * |estimate|`). Part of the answer
        /// contract: a cached answer is only reused if it fits.
        max_rel_error: Option<f64>,
        /// Client-supplied trace id. When absent the server generates
        /// one; either way the id rides every response frame and every
        /// flight-recorder record for this request.
        trace_id: Option<String>,
    },
    /// Liveness probe.
    Ping,
    /// Fetch the server's metrics registry as Prometheus text.
    Metrics,
    /// Fetch the server's per-class outcome counts and answer-latency
    /// buckets since it started, as a JSON document (drives `aqp top`).
    Stats,
    /// Fetch the flight recorder's retained request records as JSONL.
    Dump,
    /// Drop every cached answer and bump the cache epoch (issued after a
    /// table/sample rebuild so stale answers can never be re-served).
    Invalidate,
    /// Ask the server to shut down gracefully (drain, then exit).
    Shutdown,
}

impl Request {
    /// A query request with defaults (interactive, no deadline, no cap).
    pub fn query(sql: impl Into<String>) -> Request {
        Request::Query {
            sql: sql.into(),
            class: ContractClass::Interactive,
            deadline_ms: None,
            row_budget: None,
            confidence: None,
            max_rel_error: None,
            trace_id: None,
        }
    }

    /// Encode as a JSON frame payload.
    pub fn to_json(&self) -> String {
        let v = match self {
            Request::Ping => Value::Obj(vec![("op".into(), "ping".into())]),
            Request::Metrics => Value::Obj(vec![("op".into(), "metrics".into())]),
            Request::Stats => Value::Obj(vec![("op".into(), "stats".into())]),
            Request::Dump => Value::Obj(vec![("op".into(), "dump".into())]),
            Request::Shutdown => Value::Obj(vec![("op".into(), "shutdown".into())]),
            Request::Invalidate => Value::Obj(vec![("op".into(), "invalidate".into())]),
            Request::Query {
                sql,
                class,
                deadline_ms,
                row_budget,
                confidence,
                max_rel_error,
                trace_id,
            } => {
                let mut m: Vec<(String, Value)> = vec![
                    ("op".into(), "query".into()),
                    ("sql".into(), sql.as_str().into()),
                    ("class".into(), class.as_str().into()),
                ];
                if let Some(d) = deadline_ms {
                    m.push(("deadline_ms".into(), (*d).into()));
                }
                if let Some(b) = row_budget {
                    m.push(("row_budget".into(), (*b).into()));
                }
                if let Some(c) = confidence {
                    m.push(("confidence".into(), (*c).into()));
                }
                if let Some(e) = max_rel_error {
                    m.push(("max_rel_error".into(), (*e).into()));
                }
                if let Some(t) = trace_id {
                    m.push(("trace_id".into(), t.as_str().into()));
                }
                Value::Obj(m)
            }
        };
        v.to_json()
    }

    /// Decode a JSON frame payload.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = json::parse(payload)?;
        let op = v.get("op").and_then(Value::as_str).ok_or("missing op")?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "stats" => Ok(Request::Stats),
            "dump" => Ok(Request::Dump),
            "shutdown" => Ok(Request::Shutdown),
            "invalidate" => Ok(Request::Invalidate),
            "query" => Ok(Request::Query {
                sql: v.get("sql").and_then(Value::as_str).ok_or("query needs sql")?.to_string(),
                class: ContractClass::parse(
                    v.get("class").and_then(Value::as_str).unwrap_or("interactive"),
                ),
                deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
                row_budget: v.get("row_budget").and_then(Value::as_u64).map(|n| n as usize),
                confidence: v.get("confidence").and_then(Value::as_f64),
                max_rel_error: v.get("max_rel_error").and_then(Value::as_f64),
                trace_id: v.get("trace_id").and_then(Value::as_str).map(str::to_string),
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// An approximate answer flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// The request's trace id, echoed back so the client can correlate
    /// the answer with its own records (empty from pre-trace servers).
    pub trace_id: String,
    /// The ladder rung that served the answer (`primary`, `degraded`,
    /// `overall`, `exact`).
    pub tier: String,
    /// True when a row budget truncated the scan.
    pub partial: bool,
    /// True when the deadline forced a cheaper tier or truncated the
    /// exact rung — the client traded accuracy for its own deadline.
    pub deadline_limited: bool,
    /// True when the answer was re-served from the semantic cache
    /// (no scan at all; `rows_scanned` reports the original execution).
    pub cache_hit: bool,
    /// Rows the answer actually scanned.
    pub rows_scanned: u64,
    /// The row cap the ladder walked under, if any.
    pub effective_budget: Option<u64>,
    /// Server-side wall time, milliseconds.
    pub elapsed_ms: f64,
    /// Group-by column names.
    pub group_names: Vec<String>,
    /// Aggregate output aliases.
    pub agg_aliases: Vec<String>,
    /// One entry per group: key values and per-aggregate estimates.
    pub groups: Vec<WireGroup>,
}

/// One result group on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireGroup {
    /// Group key (one JSON scalar per group-by column).
    pub key: Vec<Value>,
    /// Per-aggregate `[estimate, lo, hi, exact]` tuples.
    pub values: Vec<WireValue>,
}

/// One estimate with its confidence interval.
#[derive(Debug, Clone, PartialEq)]
pub struct WireValue {
    /// Point estimate.
    pub estimate: f64,
    /// Interval lower bound.
    pub lo: f64,
    /// Interval upper bound.
    pub hi: f64,
    /// Whether the value is exact (interval collapses).
    pub exact: bool,
}

fn datum_to_json(d: &Datum) -> Value {
    match d {
        Datum::Null => Value::Null,
        Datum::Int64(i) => Value::Num(*i as f64),
        Datum::Float64(f) => Value::Num(*f),
        Datum::Utf8(s) => Value::Str(s.clone()),
        Datum::Bool(b) => Value::Bool(*b),
    }
}

impl WireAnswer {
    /// Flatten an [`ApproxAnswer`] (plus bound metadata) into what a
    /// client decodes from its frame. Groups are key-sorted first, a
    /// stable sort, so a hand-built answer comes out in wire order too; a
    /// computed answer already is in it. The server does not call this: it
    /// writes the frame from the answer ([`ServedAnswer`]), to the byte.
    pub fn from_answer(
        answer: &ApproxAnswer,
        deadline_limited: bool,
        effective_budget: Option<usize>,
        elapsed_ms: f64,
        cache_hit: bool,
        trace_id: String,
    ) -> WireAnswer {
        // Sort a permutation, not a clone of the answer; stable like
        // `ApproxAnswer::sort_by_key`, so equal keys keep the same order.
        let mut order: Vec<&ApproxGroup> = answer.groups.iter().collect();
        order.sort_by(|a, b| a.key.cmp(&b.key));
        WireAnswer {
            trace_id,
            tier: answer.tier.as_str().to_string(),
            partial: answer.partial,
            deadline_limited,
            cache_hit,
            rows_scanned: answer.rows_scanned as u64,
            effective_budget: effective_budget.map(|b| b as u64),
            elapsed_ms,
            group_names: answer.group_names.clone(),
            agg_aliases: answer.agg_aliases.clone(),
            groups: order
                .into_iter()
                .map(|g| WireGroup {
                    key: g.key.iter().map(datum_to_json).collect(),
                    values: g
                        .values
                        .iter()
                        .map(|v| WireValue {
                            estimate: v.value(),
                            lo: v.ci.lo,
                            hi: v.ci.hi,
                            exact: v.is_exact(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Append this answer's frame payload to `out`.
    fn write_json(&self, out: &mut String) {
        write_answer_frame(
            out,
            &FrameHead {
                trace_id: &self.trace_id,
                tier: &self.tier,
                partial: self.partial,
                deadline_limited: self.deadline_limited,
                cache_hit: self.cache_hit,
                effective_budget: self.effective_budget,
                rows_scanned: self.rows_scanned,
                elapsed_ms: self.elapsed_ms,
                group_names: &self.group_names,
                agg_aliases: &self.agg_aliases,
            },
            self.groups.len(),
            |out| write_groups(out, &self.groups),
        );
    }

    /// Read the `groups` array of an answer frame off the tokenizer.
    /// `None` when the value is not an array. Absent or mistyped members
    /// take the defaults a non-finite number decodes to anyway (`null`
    /// bounds are NaN, a `null` estimate is 0), and of two members with
    /// one name the first counts: what a `Value::get` lookup would find.
    fn read_groups(r: &mut Reader<'_>) -> Result<Option<Vec<WireGroup>>, String> {
        let mut groups = Vec::new();
        let is_array = r.try_array(|r| {
            let (mut key, mut values) = (None, None);
            r.try_object(|r, member| {
                match &*member {
                    "key" if key.is_none() => {
                        let mut items = Vec::new();
                        r.try_array(|r| {
                            items.push(r.value()?);
                            Ok(())
                        })?;
                        key = Some(items);
                    }
                    "values" if values.is_none() => {
                        let mut items = Vec::new();
                        r.try_array(|r| {
                            items.push(Self::read_value(r)?);
                            Ok(())
                        })?;
                        values = Some(items);
                    }
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            groups.push(WireGroup {
                key: key.unwrap_or_default(),
                values: values.unwrap_or_default(),
            });
            Ok(())
        })?;
        Ok(is_array.then_some(groups))
    }

    fn read_value(r: &mut Reader<'_>) -> Result<WireValue, String> {
        let (mut estimate, mut lo, mut hi, mut exact) = (None, None, None, None);
        r.try_object(|r, field| {
            match &*field {
                "estimate" if estimate.is_none() => estimate = Some(r.try_f64()?.unwrap_or(0.0)),
                "lo" if lo.is_none() => lo = Some(r.try_f64()?.unwrap_or(f64::NAN)),
                "hi" if hi.is_none() => hi = Some(r.try_f64()?.unwrap_or(f64::NAN)),
                "exact" if exact.is_none() => exact = Some(r.try_bool()?.unwrap_or(false)),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(WireValue {
            estimate: estimate.unwrap_or(0.0),
            lo: lo.unwrap_or(f64::NAN),
            hi: hi.unwrap_or(f64::NAN),
            exact: exact.unwrap_or(false),
        })
    }
}

/// An answer as the server frames it: the [`ApproxAnswer`] it computed,
/// or the one a cache hit shares with the cache, plus the request's
/// envelope. [`ServedAnswer::write_json`] writes the bytes
/// `Response::Answer(WireAnswer::from_answer(..))` would, without copying
/// or re-sorting the answer.
#[derive(Debug)]
pub struct ServedAnswer {
    /// The answer, in key order (every computed answer is).
    pub answer: Arc<ApproxAnswer>,
    /// The request's trace id.
    pub trace_id: String,
    /// True when the deadline forced a cheaper tier or truncated the
    /// exact rung.
    pub deadline_limited: bool,
    /// The row cap the ladder walked under, if any.
    pub effective_budget: Option<usize>,
    /// Server-side wall time, milliseconds.
    pub elapsed_ms: f64,
    /// Set when the answer is re-served from the semantic cache (the
    /// frame's `cache_hit`): what the frame takes from the cache entry
    /// rather than from `answer`.
    pub cached: Option<CachedFrame>,
}

impl ServedAnswer {
    /// Append the answer frame's payload to `out`. A cache hit's groups
    /// are the entry's [`GroupsText`], copied; any other answer's are
    /// written from the answer.
    pub fn write_json(&self, out: &mut String) {
        let answer = &*self.answer;
        debug_assert!(
            answer.groups.is_sorted_by(|a, b| a.key <= b.key),
            "a served answer is in key order"
        );
        let (group_names, agg_aliases) = match self.cached.as_ref().and_then(|c| c.names.as_ref()) {
            Some((group_names, agg_aliases)) => (group_names, agg_aliases),
            None => (&answer.group_names, &answer.agg_aliases),
        };
        let head = FrameHead {
            trace_id: &self.trace_id,
            tier: answer.tier.as_str(),
            partial: answer.partial,
            deadline_limited: self.deadline_limited,
            cache_hit: self.cached.is_some(),
            effective_budget: self.effective_budget.map(|b| b as u64),
            rows_scanned: answer.rows_scanned as u64,
            elapsed_ms: self.elapsed_ms,
            group_names,
            agg_aliases,
        };
        write_answer_frame(out, &head, answer.groups.len(), |out| match &self.cached {
            Some(cached) => cached.groups.write(out, answer),
            None => write_groups(out, &answer.groups),
        });
    }
}

/// What a cache hit's frame takes from the cache rather than from its
/// answer.
#[derive(Debug, Default)]
pub struct CachedFrame {
    /// The cache entry's groups text, shared by every hit on the entry.
    pub groups: Arc<GroupsText>,
    /// The hit query's group names and aggregate aliases, when they are
    /// not the cached answer's. The cache key erases aliases, so
    /// `COUNT(*) AS n` hits an answer cached as `COUNT(*) AS c` and its
    /// frame is labelled `n`, while the groups are the entry's.
    pub names: Option<(Vec<String>, Vec<String>)>,
}

/// An answer frame's `groups` member as text: written by the first frame
/// that serves the answer, and copied by every later one. A cache entry
/// keeps one beside its answer, so a hit encodes nothing; the text goes
/// with the entry (LRU eviction, TTL expiry, `invalidate`).
#[derive(Debug, Default)]
pub struct GroupsText(OnceLock<Box<str>>);

impl GroupsText {
    /// Append the text of `answer`'s groups to `out`: a copy of the kept
    /// text, or, the first time, the text written in place and kept.
    fn write(&self, out: &mut String, answer: &ApproxAnswer) {
        if let Some(text) = self.0.get() {
            return out.push_str(text);
        }
        let at = out.len();
        write_groups(out, &answer.groups);
        // Two first frames may both get here; they wrote the same bytes.
        let _ = self.0.set(out[at..].into());
    }
}

/// An answer frame's members besides `groups`.
struct FrameHead<'a> {
    trace_id: &'a str,
    tier: &'a str,
    partial: bool,
    deadline_limited: bool,
    cache_hit: bool,
    effective_budget: Option<u64>,
    rows_scanned: u64,
    elapsed_ms: f64,
    group_names: &'a [String],
    agg_aliases: &'a [String],
}

/// A group as an answer frame writes it: a [`WireGroup`] a client
/// decoded, or an [`ApproxGroup`] the server computed.
trait FrameGroup {
    /// Append the key's JSON scalars, comma-separated.
    fn write_key(&self, out: &mut String);
    /// The group's cells, one per aggregate.
    fn cells(&self) -> impl Iterator<Item = WireValue> + '_;
}

impl FrameGroup for WireGroup {
    fn write_key(&self, out: &mut String) {
        for (j, key) in self.key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            key.write(out);
        }
    }

    fn cells(&self) -> impl Iterator<Item = WireValue> + '_ {
        self.values.iter().cloned()
    }
}

impl FrameGroup for ApproxGroup {
    /// The bytes [`datum_to_json`] and `Value::write` give each datum.
    fn write_key(&self, out: &mut String) {
        for (j, key) in self.key.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match key {
                Datum::Null => out.push_str("null"),
                Datum::Int64(i) => write_f64(out, *i as f64),
                Datum::Float64(f) => write_f64(out, *f),
                Datum::Utf8(s) => write_escaped(out, s),
                Datum::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
    }

    fn cells(&self) -> impl Iterator<Item = WireValue> + '_ {
        self.values.iter().map(|v| WireValue {
            estimate: v.value(),
            lo: v.ci.lo,
            hi: v.ci.hi,
            exact: v.is_exact(),
        })
    }
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

/// The one layout of an answer frame's payload, appended to `out`: the
/// head's members, then `groups`, which appends the `groups` array of
/// `count` groups.
fn write_answer_frame(out: &mut String, head: &FrameHead<'_>, count: usize, groups: impl FnOnce(&mut String)) {
    // Typical widths: ~12 bytes a key, ~100 a value object; the
    // string grows if an answer is wider.
    let per_group = 24 + 12 * head.group_names.len() + 100 * head.agg_aliases.len();
    out.reserve(256 + count * per_group);
    let write_strings = |out: &mut String, items: &[String]| {
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, item);
        }
        out.push(']');
    };
    out.push_str("{\"status\":\"ok\",\"trace_id\":");
    write_escaped(out, head.trace_id);
    out.push_str(",\"tier\":");
    write_escaped(out, head.tier);
    out.push_str(",\"partial\":");
    out.push_str(bool_str(head.partial));
    out.push_str(",\"deadline_limited\":");
    out.push_str(bool_str(head.deadline_limited));
    out.push_str(",\"cache_hit\":");
    out.push_str(bool_str(head.cache_hit));
    // Integers travel as JSON numbers formatted from an f64, like
    // every number a `Value` holds.
    if let Some(budget) = head.effective_budget {
        out.push_str(",\"effective_budget\":");
        write_f64(out, budget as f64);
    }
    out.push_str(",\"rows_scanned\":");
    write_f64(out, head.rows_scanned as f64);
    out.push_str(",\"elapsed_ms\":");
    write_f64(out, head.elapsed_ms);
    out.push_str(",\"group_names\":");
    write_strings(out, head.group_names);
    out.push_str(",\"agg_aliases\":");
    write_strings(out, head.agg_aliases);
    out.push_str(",\"groups\":");
    groups(out);
    out.push('}');
}

/// The `groups` array of an answer frame, appended to `out`.
fn write_groups<G: FrameGroup>(out: &mut String, groups: &[G]) {
    out.push('[');
    for (i, group) in groups.iter().enumerate() {
        out.push_str(if i > 0 { ",{\"key\":[" } else { "{\"key\":[" });
        group.write_key(out);
        out.push_str("],\"values\":[");
        for (j, v) in group.cells().enumerate() {
            out.push_str(if j > 0 { ",{\"estimate\":" } else { "{\"estimate\":" });
            // The estimate's text, copied for a bound with the same bits:
            // every exact cell's interval is its estimate twice.
            let estimate = out.len();
            write_f64(out, v.estimate);
            let estimate = estimate..out.len();
            for (name, bound) in [(",\"lo\":", v.lo), (",\"hi\":", v.hi)] {
                out.push_str(name);
                if bound.to_bits() == v.estimate.to_bits() {
                    out.extend_from_within(estimate.clone());
                } else {
                    write_f64(out, bound);
                }
            }
            out.push_str(",\"exact\":");
            out.push_str(bool_str(v.exact));
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// One server response. Every request receives exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The query was answered (possibly at a degraded tier).
    Answer(WireAnswer),
    /// Liveness reply.
    Pong,
    /// Prometheus text-format metrics snapshot.
    Metrics(String),
    /// Per-class outcome counts and answer-latency buckets since the
    /// server started, pre-rendered as a JSON document.
    Stats(String),
    /// Flight-recorder contents, rendered as JSONL (one request record
    /// per line, oldest first).
    Dump(String),
    /// The server accepted a shutdown request and is draining.
    ShuttingDown,
    /// The semantic cache was cleared; `epoch` is the new cache epoch.
    Invalidated {
        /// Cache epoch after the bump.
        epoch: u64,
    },
    /// Admission control refused the request: the class's queue is full.
    /// Retry after the hinted back-off.
    Shed {
        /// Suggested back-off before retrying, milliseconds.
        retry_after_ms: u64,
        /// The class whose queue was full.
        class: String,
        /// The request's trace id (empty from pre-trace servers).
        trace_id: String,
    },
    /// The server is draining for shutdown; no new queries are accepted.
    Draining,
    /// The query's deadline expired (in queue or mid-scan) before any
    /// tier could finish.
    Timeout {
        /// Human-readable cause.
        message: String,
        /// The request's trace id (empty from pre-trace servers).
        trace_id: String,
    },
    /// The request failed (parse error, unsupported query, …).
    Error {
        /// Human-readable cause.
        message: String,
        /// The request's trace id (empty for non-query failures).
        trace_id: String,
    },
}

impl Response {
    /// Encode as a JSON frame payload.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append the JSON frame payload to `out` (a connection loop clears
    /// and refills one string).
    pub fn write_json(&self, out: &mut String) {
        let v = match self {
            Response::Answer(answer) => return answer.write_json(out),
            Response::Pong => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("pong".into(), true.into()),
            ]),
            Response::Metrics(text) => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("metrics".into(), text.as_str().into()),
            ]),
            Response::Stats(text) => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("stats".into(), text.as_str().into()),
            ]),
            Response::Dump(text) => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("dump".into(), text.as_str().into()),
            ]),
            Response::ShuttingDown => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("shutting_down".into(), true.into()),
            ]),
            Response::Invalidated { epoch } => Value::Obj(vec![
                ("status".into(), "ok".into()),
                ("invalidated".into(), true.into()),
                ("epoch".into(), (*epoch).into()),
            ]),
            Response::Shed { retry_after_ms, class, trace_id } => Value::Obj(vec![
                ("status".into(), "shed".into()),
                ("retry_after_ms".into(), (*retry_after_ms).into()),
                ("class".into(), class.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
            Response::Draining => Value::Obj(vec![("status".into(), "draining".into())]),
            Response::Timeout { message, trace_id } => Value::Obj(vec![
                ("status".into(), "timeout".into()),
                ("message".into(), message.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
            Response::Error { message, trace_id } => Value::Obj(vec![
                ("status".into(), "error".into()),
                ("message".into(), message.as_str().into()),
                ("trace_id".into(), trace_id.as_str().into()),
            ]),
        };
        v.write(out);
    }

    /// Decode a JSON frame payload in one pass over the tokenizer: each
    /// member goes straight into its typed slot, `groups` into
    /// [`WireGroup`]s, and a string is copied once, when a field keeps
    /// it. As in a `Value::get` lookup, the first member of a name is the
    /// one that counts, and a mistyped one reads as absent.
    pub fn from_json(payload: &str) -> Result<Response, String> {
        let mut reader = Reader::new(payload);
        let mut m = Members::default();
        let is_object = reader.try_object(|r, key| m.read(r, &key))?;
        reader.finish()?;
        if !is_object {
            return Err("missing status".into());
        }
        let owned = |s: Option<Option<Cow<'_, str>>>, default: &str| {
            s.flatten()
                .map_or_else(|| default.to_string(), Cow::into_owned)
        };
        let status = m.status.flatten().ok_or("missing status")?;
        let flag = |b: Option<Option<bool>>| b.flatten() == Some(true);
        match &*status {
            "shed" => Ok(Response::Shed {
                retry_after_ms: m.retry_after_ms.flatten().unwrap_or(0),
                class: owned(m.class, "interactive"),
                trace_id: owned(m.trace_id, ""),
            }),
            "draining" => Ok(Response::Draining),
            "timeout" => Ok(Response::Timeout {
                message: owned(m.message, ""),
                trace_id: owned(m.trace_id, ""),
            }),
            "error" => Ok(Response::Error {
                message: owned(m.message, ""),
                trace_id: owned(m.trace_id, ""),
            }),
            "ok" if flag(m.pong) => Ok(Response::Pong),
            "ok" if flag(m.shutting_down) => Ok(Response::ShuttingDown),
            "ok" if flag(m.invalidated) => Ok(Response::Invalidated {
                epoch: m.epoch.flatten().unwrap_or(0),
            }),
            "ok" => {
                if let Some(text) = m.metrics.flatten() {
                    return Ok(Response::Metrics(text.into_owned()));
                }
                if let Some(text) = m.stats.flatten() {
                    return Ok(Response::Stats(text.into_owned()));
                }
                if let Some(text) = m.dump.flatten() {
                    return Ok(Response::Dump(text.into_owned()));
                }
                let groups = m.groups.flatten().ok_or("ok response needs groups")?;
                Ok(Response::Answer(WireAnswer {
                    trace_id: owned(m.trace_id, ""),
                    tier: owned(m.tier, ""),
                    partial: flag(m.partial),
                    deadline_limited: flag(m.deadline_limited),
                    cache_hit: flag(m.cache_hit),
                    rows_scanned: m.rows_scanned.flatten().unwrap_or(0),
                    effective_budget: m.effective_budget.flatten(),
                    elapsed_ms: m.elapsed_ms.flatten().unwrap_or(0.0),
                    group_names: m.group_names.unwrap_or_default(),
                    agg_aliases: m.agg_aliases.unwrap_or_default(),
                    groups,
                }))
            }
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

/// The members of a response frame, each `Some` once the first member of
/// its name was read, holding `None` when that member had the wrong type.
#[derive(Default)]
struct Members<'a> {
    status: Option<Option<Cow<'a, str>>>,
    trace_id: Option<Option<Cow<'a, str>>>,
    tier: Option<Option<Cow<'a, str>>>,
    class: Option<Option<Cow<'a, str>>>,
    message: Option<Option<Cow<'a, str>>>,
    metrics: Option<Option<Cow<'a, str>>>,
    stats: Option<Option<Cow<'a, str>>>,
    dump: Option<Option<Cow<'a, str>>>,
    partial: Option<Option<bool>>,
    deadline_limited: Option<Option<bool>>,
    cache_hit: Option<Option<bool>>,
    pong: Option<Option<bool>>,
    shutting_down: Option<Option<bool>>,
    invalidated: Option<Option<bool>>,
    rows_scanned: Option<Option<u64>>,
    effective_budget: Option<Option<u64>>,
    epoch: Option<Option<u64>>,
    retry_after_ms: Option<Option<u64>>,
    elapsed_ms: Option<Option<f64>>,
    group_names: Option<Vec<String>>,
    agg_aliases: Option<Vec<String>>,
    groups: Option<Option<Vec<WireGroup>>>,
}

impl<'a> Members<'a> {
    /// Read the member `key`, positioned at its value.
    fn read(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), String> {
        let u64_of = |r: &mut Reader<'a>| Ok(r.try_f64()?.and_then(|n| Value::Num(n).as_u64()));
        match key {
            "status" => first(&mut self.status, r, Reader::try_str),
            "trace_id" => first(&mut self.trace_id, r, Reader::try_str),
            "tier" => first(&mut self.tier, r, Reader::try_str),
            "class" => first(&mut self.class, r, Reader::try_str),
            "message" => first(&mut self.message, r, Reader::try_str),
            "metrics" => first(&mut self.metrics, r, Reader::try_str),
            "stats" => first(&mut self.stats, r, Reader::try_str),
            "dump" => first(&mut self.dump, r, Reader::try_str),
            "partial" => first(&mut self.partial, r, Reader::try_bool),
            "deadline_limited" => first(&mut self.deadline_limited, r, Reader::try_bool),
            "cache_hit" => first(&mut self.cache_hit, r, Reader::try_bool),
            "pong" => first(&mut self.pong, r, Reader::try_bool),
            "shutting_down" => first(&mut self.shutting_down, r, Reader::try_bool),
            "invalidated" => first(&mut self.invalidated, r, Reader::try_bool),
            "rows_scanned" => first(&mut self.rows_scanned, r, u64_of),
            "effective_budget" => first(&mut self.effective_budget, r, u64_of),
            "epoch" => first(&mut self.epoch, r, u64_of),
            "retry_after_ms" => first(&mut self.retry_after_ms, r, u64_of),
            "elapsed_ms" => first(&mut self.elapsed_ms, r, Reader::try_f64),
            "group_names" => first(&mut self.group_names, r, read_strings),
            "agg_aliases" => first(&mut self.agg_aliases, r, read_strings),
            "groups" => first(&mut self.groups, r, WireAnswer::read_groups),
            _ => r.skip(),
        }
    }
}

/// Fill an empty `slot` by `read`; a member whose slot is filled is a
/// later duplicate, skipped.
fn first<'a, T>(
    slot: &mut Option<T>,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return r.skip();
    }
    *slot = Some(read(r)?);
    Ok(())
}

/// The string elements of an array (others dropped); empty when the
/// value is not an array.
fn read_strings(r: &mut Reader<'_>) -> Result<Vec<String>, String> {
    let mut items = Vec::new();
    r.try_array(|r| {
        items.extend(r.try_str()?.map(Cow::into_owned));
        Ok(())
    })?;
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "wörld").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some("hello".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Some("".into()));
        assert_eq!(read_frame(&mut r).unwrap(), Some("wörld".into()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn recycled_buffers_are_reused_up_to_the_retention_cap() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, &"x".repeat(RETAINED_BUFFER_BYTES + 1)).unwrap();
        write_frame(&mut wire, "small").unwrap();
        write_frame(&mut wire, "next").unwrap();
        let mut r = &wire[..];
        let mut reader = FrameReader::new();
        let outlier = reader.read_blocking(&mut r).unwrap().unwrap();
        reader.recycle(outlier);
        assert_eq!(reader.spare.capacity(), 0, "an outlier's allocation is released");
        let small = reader.read_blocking(&mut r).unwrap().unwrap();
        let at = small.as_ptr();
        reader.recycle(small);
        let next = reader.read_blocking(&mut r).unwrap().unwrap();
        assert_eq!((next.as_str(), next.as_ptr()), ("next", at), "same allocation");
    }

    /// Yields scripted chunks, returning `WouldBlock` between them —
    /// a stream whose frames arrive split across read-timeout windows.
    struct StutterReader {
        chunks: Vec<Vec<u8>>,
        next: usize,
        ready: bool,
    }

    impl StutterReader {
        fn new(bytes: &[u8], chunk: usize) -> StutterReader {
            StutterReader {
                chunks: bytes.chunks(chunk.max(1)).map(<[u8]>::to_vec).collect(),
                next: 0,
                ready: false,
            }
        }
    }

    impl Read for StutterReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            match self.chunks.get(self.next) {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n == chunk.len() {
                        self.next += 1;
                    } else {
                        self.chunks[self.next].drain(..n);
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, "split me").unwrap();
        write_frame(&mut wire, "second").unwrap();
        // One byte per window: every read times out at least once, both
        // inside the header and inside the payload.
        let mut r = StutterReader::new(&wire, 1);
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read(&mut r).unwrap() {
                FrameRead::Frame(p) => {
                    assert!(!reader.mid_frame(), "boundary after a full frame");
                    frames.push(p);
                }
                FrameRead::Eof => break,
                FrameRead::Idle => assert!(!reader.mid_frame()),
                FrameRead::MidFrame => assert!(reader.mid_frame()),
            }
        }
        assert_eq!(frames, vec!["split me".to_string(), "second".to_string()]);
    }

    #[test]
    fn frame_reader_distinguishes_idle_from_mid_frame() {
        let mut wire: Vec<u8> = Vec::new();
        write_frame(&mut wire, "x").unwrap();
        let mut reader = FrameReader::new();

        // Timeout with nothing consumed: idle, still at a boundary.
        let mut empty = StutterReader::new(&[], 1);
        empty.ready = false; // force a WouldBlock first
        assert_eq!(reader.read(&mut empty).unwrap(), FrameRead::Idle);
        assert!(!reader.mid_frame());

        // Feed exactly two header bytes, then a timeout: mid-frame.
        let mut partial = StutterReader::new(&wire[..2], 2);
        partial.ready = true; // deliver the chunk immediately
        assert_eq!(reader.read(&mut partial).unwrap(), FrameRead::MidFrame);
        assert!(reader.mid_frame());

        // The rest of the frame arrives (still stuttering): the reader
        // resumes across further timeouts, no desync.
        let mut rest = StutterReader::new(&wire[2..], 16);
        rest.ready = true;
        let got = loop {
            match reader.read(&mut rest).unwrap() {
                FrameRead::Frame(p) => break p,
                FrameRead::MidFrame => {}
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(got, "x");
        assert!(!reader.mid_frame());
    }

    #[test]
    fn torn_and_oversized_frames_error() {
        let mut r: &[u8] = &[0, 0];
        assert!(read_frame(&mut r).is_err(), "torn header");
        let mut r: &[u8] = &[0, 0, 0, 5, b'a'];
        assert!(read_frame(&mut r).is_err(), "torn payload");
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        let mut r: &[u8] = &huge;
        assert!(read_frame(&mut r).is_err(), "oversized length prefix");
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Metrics,
            Request::Stats,
            Request::Dump,
            Request::Shutdown,
            Request::Invalidate,
            Request::Query {
                sql: "SELECT COUNT(*) FROM v GROUP BY g".into(),
                class: ContractClass::Batch,
                deadline_ms: Some(250),
                row_budget: Some(10_000),
                confidence: Some(0.99),
                max_rel_error: Some(0.05),
                trace_id: Some("cli-7f3a".into()),
            },
            Request::query("SELECT SUM(x) FROM v"),
        ];
        for req in reqs {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
        assert!(Request::from_json("{}").is_err());
        assert!(Request::from_json("{\"op\":\"dance\"}").is_err());
        assert!(Request::from_json("not json").is_err());
    }

    #[test]
    fn responses_round_trip() {
        let answer = WireAnswer {
            trace_id: "aqp-deadbeef".into(),
            tier: "overall".into(),
            partial: true,
            deadline_limited: true,
            cache_hit: true,
            rows_scanned: 123,
            effective_budget: Some(1000),
            elapsed_ms: 4.25,
            group_names: vec!["g".into()],
            agg_aliases: vec!["cnt".into()],
            groups: vec![WireGroup {
                key: vec![Value::Str("rare".into())],
                values: vec![WireValue { estimate: 10.0, lo: 8.0, hi: 12.0, exact: false }],
            }],
        };
        let resps = [
            Response::Answer(answer),
            Response::Pong,
            Response::Metrics("# HELP x\n".into()),
            Response::Stats("{\"classes\":[]}".into()),
            Response::Dump("{\"trace_id\":\"t-1\"}\n{\"trace_id\":\"t-2\"}\n".into()),
            Response::ShuttingDown,
            Response::Invalidated { epoch: 3 },
            Response::Shed {
                retry_after_ms: 40,
                class: "interactive".into(),
                trace_id: "aqp-1".into(),
            },
            Response::Draining,
            Response::Timeout { message: "deadline exceeded".into(), trace_id: "aqp-2".into() },
            Response::Error { message: "unknown column".into(), trace_id: String::new() },
        ];
        for resp in resps {
            let back = Response::from_json(&resp.to_json()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn class_parse_defaults_to_interactive() {
        assert_eq!(ContractClass::parse("batch"), ContractClass::Batch);
        assert_eq!(ContractClass::parse("interactive"), ContractClass::Interactive);
        assert_eq!(ContractClass::parse("vip"), ContractClass::Interactive);
    }
}

//! Semantic answer cache with CI-aware reuse and single-flight execution.
//!
//! The paper's premise is that one pre-built sample answers many future
//! queries; this module closes the loop at the serving layer: an answer
//! already computed for a *semantically equal* plan is re-served without
//! touching the morsel pool at all — provided its confidence intervals
//! satisfy the new request's [`AnswerContract`] at **equal-or-tighter**
//! bounds (BlinkDB-style bounded-error contracts; VerdictDB-style reuse
//! of sample-derived estimates across queries).
//!
//! * **Statements**: the cache keeps the statements it has seen
//!   ([`SemanticCache::statement`]): each SQL text's parse and plan-key
//!   text, so a repeated text is neither parsed nor canonicalized again.
//!   A text that does not parse is not kept, nor one longer than
//!   [`MAX_KEPT_STATEMENT_BYTES`]. At most `capacity` texts are kept,
//!   least recently used out first; an `invalidate` keeps them, as the
//!   plan-key text they hold carries no epoch.
//! * **Keys** are canonicalized plans ([`aqp_sql::plan_key_text`]):
//!   whitespace, literal formatting, predicate commutation, and aggregate
//!   aliases are erased; table name, predicate set, group columns and
//!   aggregate list are folded in. Answers are mapped by that full text —
//!   a fixed-width hash ([`aqp_query::FxHasher`], deterministic and
//!   platform-stable) is carried only as a fingerprint for logs and
//!   metrics. A [`PlanKey`] (a flight's, or [`SemanticCache::key`]'s)
//!   also carries the cache **epoch** (bumped on table rebuild), and an
//!   answer keyed under an earlier epoch than the cache's is not kept, so
//!   every entry belongs to the current epoch.
//! * **Hits** are contract-checked, never key-only: a cached approximate
//!   answer serves a request at equal-or-lower confidence (its intervals
//!   cover with at least the demanded probability) and within any
//!   relative-error bound; exact answers satisfy any contract; partial
//!   answers are never cached. A hit costs two map lookups (statement,
//!   answer) and the contract check, and copies nothing: it shares the
//!   entry's answer (`Arc<ApproxAnswer>`) and the entry's frame text of
//!   that answer's groups ([`GroupsText`], written by the entry's first
//!   hit), and the server writes its frame as a fresh head plus one copy
//!   of that text. When the incoming query names its columns otherwise
//!   than the cached one, the hit carries the incoming names for the
//!   head ([`CachedFrame`]), so `COUNT(*) AS n` hits an answer cached as
//!   `COUNT(*) AS c` yet comes back labelled `n`.
//! * **Single-flight**: N concurrent misses on one key execute once. The
//!   first miss becomes the *leader* (returns [`CacheDecision::Execute`]
//!   with a [`FlightGuard`]); followers block — bounded by their own
//!   deadline — until the leader completes or abandons, then re-check
//!   the cache. A leader that dies releases its flight on drop, so a
//!   panicked or errored execution can never wedge its followers.
//! * **Bounds**: capacity-capped with LRU eviction, optional TTL expiry
//!   (checked at lookup), and explicit [`SemanticCache::invalidate`] for
//!   table rebuilds (bumps the epoch and clears the map). An entry's
//!   groups text goes with it.
//!
//! Observability: `aqp_cache_{hit,miss,insert,evict,bypass}_total`
//! counters (`evict` labelled by reason: `lru`, `ttl`, `invalidate`) and
//! an `aqp_cache_size` gauge, in the registry the cache is built with.
//! Every [`SemanticCache::decide`] counts exactly one of hit, miss or
//! bypass, so the server reads its cache tallies from these counters.

use crate::protocol::{CachedFrame, GroupsText};
use aqp_core::{AnswerContract, ApproxAnswer};
use aqp_obs::Registry;
use aqp_query::{FxHashMap, Query};
use aqp_sql::{ParsedQuery, SqlResult};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often a waiting follower re-checks its deadline while parked on
/// the flight condvar (wakeups also arrive via notify on completion).
const FLIGHT_WAIT_TICK: Duration = Duration::from_millis(50);

/// The longest SQL text whose statement is kept. Longer texts are parsed
/// and keyed on every request, so the statements map holds at most
/// `capacity` times this many bytes of SQL however the texts are padded.
pub const MAX_KEPT_STATEMENT_BYTES: usize = 4096;

/// Cache configuration (server flags map onto this).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum number of cached answers, and of kept statements; `0`
    /// disables the cache (every query bypasses).
    pub capacity: usize,
    /// Entry time-to-live; `None` = entries live until evicted or
    /// invalidated.
    pub ttl: Option<Duration>,
    /// Master switch; `false` bypasses the cache at any capacity.
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity: 256, ttl: None, enabled: true }
    }
}

impl CacheConfig {
    /// A configuration with the cache fully off.
    pub fn disabled() -> CacheConfig {
        CacheConfig { capacity: 0, ttl: None, enabled: false }
    }
}

/// A canonicalized, epoch-stamped cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    text: String,
    hash: u64,
    epoch: u64,
    /// Where the plan-key text starts in `text`, past the epoch.
    plan_at: usize,
}

impl PlanKey {
    fn new(epoch: u64, plan: &str) -> PlanKey {
        let text = format!("e{epoch}|{plan}");
        let mut h = aqp_query::FxHasher::default();
        h.write(text.as_bytes());
        PlanKey { plan_at: text.len() - plan.len(), hash: h.finish(), text, epoch }
    }

    /// The full canonical key text (injective over plans + epoch).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Stable 64-bit fingerprint of the key text ([`aqp_query::FxHasher`]
    /// — seedless and platform-independent, so the same plan hashes
    /// identically in every process).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The plan-key text, without the epoch: what the answers are mapped by.
    fn plan(&self) -> &str {
        &self.text[self.plan_at..]
    }
}

/// A statement as [`SemanticCache::statement`] returns it: the parse of
/// one SQL text and the plan-key text the cache maps its answers by.
#[derive(Debug)]
pub struct Statement {
    /// The parsed statement.
    pub parsed: ParsedQuery,
    /// [`aqp_sql::plan_key_text`] of the parse, without the epoch; empty
    /// from a disabled cache, which keys nothing.
    plan: String,
}

struct Entry {
    answer: Arc<ApproxAnswer>,
    /// The frame text of `answer`'s groups, written by the first hit.
    groups: Arc<GroupsText>,
    confidence: f64,
    inserted: Instant,
    /// LRU clock value at last touch.
    used: u64,
}

struct KeptStatement {
    statement: Arc<Statement>,
    /// LRU clock value at last use.
    used: u64,
}

/// What the cache decided for one incoming query.
pub enum CacheDecision<'a> {
    /// Caching is disabled for this request; execute normally, do not
    /// insert.
    Bypass,
    /// Contract-satisfying answer served from cache: the cached answer,
    /// shared with its entry and named as the query that executed it; the
    /// confidence its intervals were computed at; and what the hit's
    /// frame takes from the entry: the groups text and, when the incoming
    /// query names its columns otherwise, those names.
    Hit(Arc<ApproxAnswer>, f64, CachedFrame),
    /// Miss: the caller must execute and then [`FlightGuard::complete`]
    /// (or drop the guard to abandon the flight).
    Execute(FlightGuard<'a>),
}

/// Leader token for one in-flight execution. Dropping it without
/// [`FlightGuard::complete`] releases any waiting followers (who then
/// elect a new leader), so error paths need no special handling.
pub struct FlightGuard<'a> {
    cache: &'a SemanticCache,
    key: PlanKey,
    /// Whether this guard owns a registered flight (a deadline-expired
    /// follower executes unregistered and must not release someone
    /// else's flight).
    owns_flight: bool,
}

impl FlightGuard<'_> {
    /// The key this flight executes for.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// [`FlightGuard::complete_shared`] for an answer not behind an
    /// `Arc`: the entry keeps a copy.
    pub fn complete(self, answer: &ApproxAnswer, confidence: f64, insertable: bool) {
        self.complete_shared(&Arc::new(answer.clone()), confidence, insertable);
    }

    /// Record the executed answer. A complete (non-partial) answer
    /// computed at `confidence` is shared with the cache for reuse; a
    /// partial answer, or a deadline-shaped one (`insertable` false), is
    /// released without caching — it describes the request's budget, not
    /// the data.
    pub fn complete_shared(self, answer: &Arc<ApproxAnswer>, confidence: f64, insertable: bool) {
        if insertable && !answer.partial {
            self.cache.insert(&self.key, Arc::clone(answer), confidence);
        }
        // Drop releases the flight and wakes followers.
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.owns_flight {
            let mut flights = self.cache.flights.lock().expect("cache flights poisoned");
            flights.remove(&self.key.text);
            drop(flights);
            self.cache.flight_done.notify_all();
        }
    }
}

/// The semantic answer cache. One per server; shared by every connection
/// thread.
pub struct SemanticCache {
    config: CacheConfig,
    enabled: bool,
    registry: Arc<Registry>,
    epoch: AtomicU64,
    clock: AtomicU64,
    /// Answers by plan-key text, all of the current epoch.
    state: Mutex<FxHashMap<String, Entry>>,
    /// Statements by SQL text.
    statements: Mutex<FxHashMap<Box<str>, KeptStatement>>,
    flights: Mutex<std::collections::HashSet<String>>,
    flight_done: Condvar,
}

impl std::fmt::Debug for SemanticCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticCache")
            .field("enabled", &self.enabled)
            .field("capacity", &self.config.capacity)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("len", &self.len())
            .finish()
    }
}

impl SemanticCache {
    /// Build a cache that records into a registry of its own;
    /// `enabled: false` or capacity 0 disables it.
    pub fn new(config: CacheConfig) -> SemanticCache {
        Self::with_registry(config, Arc::default())
    }

    /// Build a cache that records into `registry` (a server's).
    pub fn with_registry(config: CacheConfig, registry: Arc<Registry>) -> SemanticCache {
        let enabled = config.enabled && config.capacity > 0;
        SemanticCache {
            config,
            enabled,
            registry,
            epoch: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            state: Mutex::new(HashMap::default()),
            statements: Mutex::new(HashMap::default()),
            flights: Mutex::new(std::collections::HashSet::new()),
            flight_done: Condvar::new(),
        }
    }

    /// Whether lookups/inserts are active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current epoch (bumped by [`SemanticCache::invalidate`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache state poisoned").len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The epoch-stamped canonical key for `query` against `table`.
    pub fn key(&self, table: &str, query: &Query) -> PlanKey {
        PlanKey::new(self.epoch(), &aqp_sql::plan_key_text(table, query))
    }

    /// The statement `sql` parses to. An enabled cache parses and keys a
    /// text once and keeps the statement for the text's next request; a
    /// text that does not parse is not kept, so each of its requests gets
    /// the parse error, and a text longer than
    /// [`MAX_KEPT_STATEMENT_BYTES`] is parsed and keyed every time. A
    /// disabled cache parses every time and keeps nothing.
    pub fn statement(&self, sql: &str) -> SqlResult<Arc<Statement>> {
        if !self.enabled {
            let parsed = aqp_sql::parse_query(sql)?;
            return Ok(Arc::new(Statement { parsed, plan: String::new() }));
        }
        if let Some(kept) = self.statements.lock().expect("cache statements poisoned").get_mut(sql) {
            kept.used = self.tick();
            return Ok(Arc::clone(&kept.statement));
        }
        let parsed = aqp_sql::parse_query(sql)?;
        let plan = aqp_sql::plan_key_text(&parsed.table, &parsed.query);
        let statement = Arc::new(Statement { parsed, plan });
        if sql.len() > MAX_KEPT_STATEMENT_BYTES {
            return Ok(statement);
        }
        let mut statements = self.statements.lock().expect("cache statements poisoned");
        let kept = KeptStatement { statement: Arc::clone(&statement), used: self.tick() };
        statements.insert(sql.into(), kept);
        evict_lru(&mut statements, self.config.capacity, |k| k.used);
        Ok(statement)
    }

    /// [`SemanticCache::decide`] for a statement from
    /// [`SemanticCache::statement`], whose plan-key text is already made.
    pub fn decide_statement<'a>(
        &'a self,
        statement: &Statement,
        contract: &AnswerContract,
        deadline: Option<Instant>,
    ) -> CacheDecision<'a> {
        if !self.enabled {
            return self.bypass();
        }
        self.decide_plan(&statement.plan, &statement.parsed.query, contract, deadline)
    }

    /// Route one query: serve a contract-satisfying cached answer, join
    /// or lead a single-flight execution, or bypass when disabled. A
    /// follower waits at most until `deadline` (forever if `None` —
    /// safe because leaders release on drop, even on panic).
    pub fn decide<'a>(
        &'a self,
        table: &str,
        query: &Query,
        contract: &AnswerContract,
        deadline: Option<Instant>,
    ) -> CacheDecision<'a> {
        if !self.enabled {
            return self.bypass();
        }
        self.decide_plan(&aqp_sql::plan_key_text(table, query), query, contract, deadline)
    }

    fn bypass<'a>(&self) -> CacheDecision<'a> {
        self.registry.counter("aqp_cache_bypass_total", &[]).inc();
        CacheDecision::Bypass
    }

    /// [`SemanticCache::decide`] for the plan-key text `plan` of `query`.
    fn decide_plan<'a>(
        &'a self,
        plan: &str,
        query: &Query,
        contract: &AnswerContract,
        deadline: Option<Instant>,
    ) -> CacheDecision<'a> {
        loop {
            if let Some(hit) = self.lookup(plan, contract, query) {
                return hit;
            }
            let key = PlanKey::new(self.epoch(), plan);
            let mut flights = self.flights.lock().expect("cache flights poisoned");
            if !flights.contains(&key.text) {
                // No flight, but one may have landed between the lookup
                // above and this lock. A leader inserts before it lands,
                // so look again (flights → state is the only nesting of
                // the two locks) rather than execute the key a second time.
                if let Some(hit) = self.lookup(plan, contract, query) {
                    return hit;
                }
                flights.insert(key.text.clone());
                drop(flights);
                self.registry.counter("aqp_cache_miss_total", &[]).inc();
                return CacheDecision::Execute(FlightGuard { cache: self, key, owns_flight: true });
            }
            // Follower: park until the leader finishes or our deadline
            // nears, then re-check the cache from the top.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                drop(flights);
                self.registry.counter("aqp_cache_miss_total", &[]).inc();
                return CacheDecision::Execute(FlightGuard {
                    cache: self,
                    key,
                    owns_flight: false,
                });
            }
            let tick = match deadline {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(FLIGHT_WAIT_TICK),
                None => FLIGHT_WAIT_TICK,
            };
            let (guard, _) = self
                .flight_done
                .wait_timeout(flights, tick)
                .expect("cache flights poisoned");
            drop(guard);
        }
    }

    /// Contract-checked lookup, counted as a hit when it finds one.
    /// Expired entries are evicted on the way.
    fn lookup<'a>(&self, plan: &str, contract: &AnswerContract, query: &Query) -> Option<CacheDecision<'a>> {
        let mut state = self.state.lock().expect("cache state poisoned");
        let entry = state.get_mut(plan)?;
        if self.config.ttl.is_some_and(|ttl| entry.inserted.elapsed() >= ttl) {
            state.remove(plan);
            self.registry.counter("aqp_cache_evict_total", &[("reason", "ttl")]).inc();
            self.registry.gauge("aqp_cache_size", &[]).set(state.len() as i64);
            return None;
        }
        if !contract.satisfied_by(&entry.answer, entry.confidence) {
            return None;
        }
        entry.used = self.tick();
        let answer = Arc::clone(&entry.answer);
        let groups = Arc::clone(&entry.groups);
        let confidence = entry.confidence;
        drop(state);
        // The key erases aliases, so the cached names may differ from the
        // incoming query's; only then does the hit carry the query's.
        let aliases = query.aggregates.iter().map(|a| &a.alias);
        let names = (answer.group_names != query.group_by || !answer.agg_aliases.iter().eq(aliases))
            .then(|| (query.group_by.clone(), query.aggregates.iter().map(|a| a.alias.clone()).collect()));
        self.registry.counter("aqp_cache_hit_total", &[]).inc();
        Some(CacheDecision::Hit(answer, confidence, CachedFrame { groups, names }))
    }

    /// Insert an answer (used by [`FlightGuard::complete_shared`]). Evicts
    /// LRU entries down to capacity.
    fn insert(&self, key: &PlanKey, answer: Arc<ApproxAnswer>, confidence: f64) {
        if !self.enabled {
            return;
        }
        let mut state = self.state.lock().expect("cache state poisoned");
        // A flight that took off before an `invalidate` may have read the
        // data from before the rebuild: its answer is not kept. (The
        // epoch is bumped before the map is cleared under this lock, so
        // no such answer outlives the clear.)
        if key.epoch != self.epoch() {
            return;
        }
        let used = self.tick();
        let entry = Entry { answer, groups: Arc::default(), confidence, inserted: Instant::now(), used };
        state.insert(key.plan().to_owned(), entry);
        self.registry.counter("aqp_cache_insert_total", &[]).inc();
        let evicted = evict_lru(&mut state, self.config.capacity, |e| e.used);
        if evicted > 0 {
            self.registry.counter("aqp_cache_evict_total", &[("reason", "lru")]).inc_by(evicted);
        }
        self.registry.gauge("aqp_cache_size", &[]).set(state.len() as i64);
    }

    /// Explicit invalidation on table rebuild: bump the epoch (so a key
    /// computed before the bump can never match one computed after) and
    /// drop every cached answer. In-flight executions keyed under the
    /// old epoch are not kept when they complete. Returns the new epoch.
    pub fn invalidate(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut state = self.state.lock().expect("cache state poisoned");
        let dropped = state.len();
        state.clear();
        if dropped > 0 {
            self.registry
                .counter("aqp_cache_evict_total", &[("reason", "invalidate")])
                .inc_by(dropped as u64);
        }
        self.registry.gauge("aqp_cache_size", &[]).set(0);
        epoch
    }

    /// The next LRU clock value.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Drop `map`'s least recently used members (by `used`) until it holds at
/// most `capacity`; returns how many went. An O(n) scan per member:
/// capacities are hundreds, not millions.
fn evict_lru<K: Clone + Eq + Hash, V>(map: &mut FxHashMap<K, V>, capacity: usize, used: impl Fn(&V) -> u64) -> u64 {
    let mut evicted = 0;
    while map.len() > capacity {
        let coldest = map
            .iter()
            .min_by_key(|(_, v)| used(v))
            .map(|(k, _)| k.clone())
            .expect("non-empty over-capacity map");
        map.remove(&coldest);
        evicted += 1;
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_core::{ApproxAnswer, ApproxGroup, ApproxValue, ServingTier};
    use aqp_query::{AggExpr, Query};
    use aqp_sampling::{ConfidenceInterval, Estimate};
    use aqp_storage::Value;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn query(alias: &str) -> Query {
        Query::builder()
            .aggregate(AggExpr::count(alias))
            .group_by("g")
            .build()
            .unwrap()
    }

    fn answer(value: f64, half: f64, partial: bool) -> ApproxAnswer {
        ApproxAnswer {
            group_names: vec!["g".into()],
            agg_aliases: vec!["cached_name".into()],
            groups: vec![ApproxGroup {
                key: vec![Value::Utf8("x".into())],
                values: vec![ApproxValue {
                    estimate: Estimate::with_variance(value, 1.0),
                    ci: ConfidenceInterval {
                        lo: value - half,
                        hi: value + half,
                        confidence: 0.95,
                    },
                }],
            }],
            rows_scanned: 10,
            tier: ServingTier::Primary,
            partial,
        }
    }

    fn cache(capacity: usize) -> SemanticCache {
        SemanticCache::new(CacheConfig { capacity, ttl: None, enabled: true })
    }

    fn run_miss(c: &SemanticCache, table: &str, q: &Query, a: &ApproxAnswer) {
        match c.decide(table, q, &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard.complete(a, 0.95, true),
            _ => panic!("expected a miss"),
        }
    }

    #[test]
    fn miss_then_hit_with_alias_reskin() {
        let c = cache(8);
        run_miss(&c, "v", &query("cached_name"), &answer(100.0, 5.0, false));
        assert_eq!(c.len(), 1);
        // Same plan, different alias: key matches, the frame takes the
        // incoming names.
        match c.decide("v", &query("fresh_name"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Hit(a, conf, frame) => {
                assert_eq!(a.agg_aliases, vec!["cached_name".to_owned()], "the entry is not re-skinned");
                let names = (vec!["g".to_owned()], vec!["fresh_name".to_owned()]);
                assert_eq!(frame.names, Some(names));
                assert!((conf - 0.95).abs() < 1e-12);
            }
            _ => panic!("expected a hit"),
        };
    }

    #[test]
    fn every_hit_shares_the_entry() {
        let c = cache(8);
        run_miss(&c, "v", &query("cached_name"), &answer(100.0, 5.0, false));
        let hit = |alias: &str| match c.decide("v", &query(alias), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Hit(a, _, frame) => (a, frame),
            _ => panic!("expected a hit"),
        };
        let (first, second, reskinned) = (hit("cached_name"), hit("cached_name"), hit("fresh_name"));
        for (other, what) in [(&second, "a second hit"), (&reskinned, "a re-aliased hit")] {
            assert!(Arc::ptr_eq(&first.0, &other.0), "{what} holds the cached answer");
            assert!(Arc::ptr_eq(&first.1.groups, &other.1.groups), "{what} holds the entry's groups text");
        }
        assert!(first.1.names.is_none() && second.1.names.is_none());
    }

    #[test]
    fn statements_are_parsed_once_and_keyed_without_the_epoch() {
        let c = cache(8);
        let sql = "SELECT g, COUNT(*) AS n FROM v GROUP BY g";
        let first = c.statement(sql).unwrap();
        assert!(Arc::ptr_eq(&first, &c.statement(sql).unwrap()), "a repeated text is not parsed again");
        assert_eq!(first.plan, aqp_sql::plan_key_text(&first.parsed.table, &first.parsed.query));
        let contract = AnswerContract::at_confidence(0.95);
        let key = |c: &SemanticCache| match c.decide_statement(&first, &contract, None) {
            CacheDecision::Execute(guard) => {
                let key = guard.key().clone();
                guard.complete(&answer(1.0, 0.1, false), 0.95, true);
                key
            }
            _ => panic!("expected a miss"),
        };
        let before = key(&c);
        assert_eq!(before, c.key(&first.parsed.table, &first.parsed.query));
        assert!(matches!(c.decide_statement(&first, &contract, None), CacheDecision::Hit(..)));
        c.invalidate();
        // The kept statement outlives the bump; its key is the new epoch's.
        let after = key(&c);
        assert!(Arc::ptr_eq(&first, &c.statement(sql).unwrap()));
        assert_eq!(after, c.key(&first.parsed.table, &first.parsed.query));
        assert!(after.text().starts_with("e1|") && before.text().starts_with("e0|"), "{after:?}");
        assert!(matches!(c.decide_statement(&first, &contract, None), CacheDecision::Hit(..)));
    }

    #[test]
    fn unparsable_texts_are_not_kept_and_kept_ones_are_bounded() {
        let c = cache(2);
        for _ in 0..3 {
            assert!(c.statement("SELEKT garbage").is_err());
        }
        assert!(c.statements.lock().unwrap().is_empty());
        let sql = |g: &str| format!("SELECT {g}, COUNT(*) FROM v GROUP BY {g}");
        let a = c.statement(&sql("a")).unwrap();
        c.statement(&sql("b")).unwrap();
        c.statement(&sql("a")).unwrap();
        c.statement(&sql("c")).unwrap();
        let kept = c.statements.lock().unwrap().keys().map(|k| k.to_string()).collect::<std::collections::BTreeSet<_>>();
        assert_eq!(kept, [sql("a"), sql("c")].into_iter().collect(), "the least recently used text went");
        assert!(Arc::ptr_eq(&a, &c.statement(&sql("a")).unwrap()));
        // An oversized text is parsed and keyed, but not kept.
        let padded = format!("{}{}", sql("a"), " ".repeat(MAX_KEPT_STATEMENT_BYTES));
        let long = c.statement(&padded).unwrap();
        assert_eq!(long.plan, a.plan, "padding does not change the plan");
        assert!(!Arc::ptr_eq(&long, &c.statement(&padded).unwrap()), "an oversized text is parsed again");
        assert!(!c.statements.lock().unwrap().contains_key(padded.as_str()));
        assert_eq!(c.statements.lock().unwrap().len(), 2);
        let off = SemanticCache::new(CacheConfig::disabled());
        off.statement(&sql("a")).unwrap();
        assert!(off.statements.lock().unwrap().is_empty(), "a disabled cache keeps nothing");
    }

    #[test]
    fn a_flight_from_before_an_invalidate_is_not_kept() {
        let c = cache(8);
        let stale = match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard,
            _ => panic!("expected a miss"),
        };
        c.invalidate();
        stale.complete(&answer(1.0, 0.1, false), 0.95, true);
        assert!(c.is_empty());
    }

    #[test]
    fn tighter_contract_misses_looser_hits() {
        let c = cache(8);
        run_miss(&c, "v", &query("n"), &answer(100.0, 5.0, false));
        // Demanding higher confidence than the cached 0.95: must re-execute.
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.99), None) {
            CacheDecision::Execute(_) => {}
            _ => panic!("tighter contract must not reuse"),
        }
        // Looser confidence is satisfied.
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.90), None),
            CacheDecision::Hit(..)
        ));
        // A relative-error bound tighter than the cached 5% half-width misses.
        let tight = AnswerContract { confidence: 0.95, max_rel_error: Some(0.01) };
        assert!(matches!(c.decide("v", &query("n"), &tight, None), CacheDecision::Execute(_)));
    }

    #[test]
    fn partial_answers_are_never_cached() {
        let c = cache(8);
        run_miss(&c, "v", &query("n"), &answer(100.0, 5.0, true));
        assert!(c.is_empty());
        let miss = || match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard,
            _ => panic!("expected a miss"),
        };
        // Nor through the server's shared insert, even when insertable.
        miss().complete_shared(&Arc::new(answer(100.0, 5.0, true)), 0.95, true);
        assert!(c.is_empty());
        // Deadline-shaped answers (insertable = false) are not cached either.
        miss().complete(&answer(100.0, 5.0, false), 0.95, false);
        miss().complete_shared(&Arc::new(answer(100.0, 5.0, false)), 0.95, false);
        assert!(c.is_empty());
        // A partial answer does not displace a good entry for its plan.
        miss().complete_shared(&Arc::new(answer(100.0, 5.0, false)), 0.95, true);
        let inserts = || c.registry.counter("aqp_cache_insert_total", &[]).get();
        let before = inserts();
        let late = FlightGuard { cache: &c, key: c.key("v", &query("n")), owns_flight: false };
        late.complete_shared(&Arc::new(answer(100.0, 5.0, true)), 0.95, true);
        assert_eq!(inserts(), before);
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Hit(..)
        ));
    }

    #[test]
    fn different_tables_and_plans_do_not_collide() {
        let c = cache(8);
        run_miss(&c, "v1", &query("n"), &answer(1.0, 0.1, false));
        assert!(matches!(
            c.decide("v2", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
        let other = Query::builder()
            .aggregate(AggExpr::count("n"))
            .group_by("h")
            .build()
            .unwrap();
        assert!(matches!(
            c.decide("v1", &other, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn lru_evicts_coldest_at_capacity() {
        let c = cache(2);
        let q1 = query("a");
        let mut q2 = query("a");
        q2.group_by = vec!["h".into()];
        let mut q3 = query("a");
        q3.group_by = vec!["k".into()];
        run_miss(&c, "v", &q1, &answer(1.0, 0.1, false));
        run_miss(&c, "v", &q2, &answer(2.0, 0.1, false));
        // Touch q1 so q2 is the LRU victim.
        assert!(matches!(
            c.decide("v", &q1, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Hit(..)
        ));
        run_miss(&c, "v", &q3, &answer(3.0, 0.1, false));
        assert_eq!(c.len(), 2);
        assert!(matches!(
            c.decide("v", &q1, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Hit(..)
        ));
        assert!(matches!(
            c.decide("v", &q2, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn ttl_expires_entries() {
        let c = SemanticCache::new(CacheConfig {
            capacity: 8,
            ttl: Some(Duration::from_millis(1)),
            enabled: true,
        });
        run_miss(&c, "v", &query("n"), &answer(1.0, 0.1, false));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_bumps_epoch_and_clears() {
        let c = cache(8);
        let q = query("n");
        let key_before = c.key("v", &q);
        run_miss(&c, "v", &q, &answer(1.0, 0.1, false));
        assert_eq!(c.invalidate(), 1);
        assert!(c.is_empty());
        let key_after = c.key("v", &q);
        assert_ne!(key_before.text(), key_after.text());
        assert!(matches!(
            c.decide("v", &q, &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn disabled_cache_bypasses() {
        let c = SemanticCache::new(CacheConfig::disabled());
        assert!(!c.enabled());
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Bypass
        ));
        let zero = SemanticCache::new(CacheConfig { capacity: 0, ttl: None, enabled: true });
        assert!(!zero.enabled());
    }

    #[test]
    fn key_hash_is_deterministic() {
        let c = cache(8);
        let k1 = c.key("v", &query("a"));
        let k2 = c.key("v", &query("b"));
        assert_eq!(k1.text(), k2.text());
        assert_eq!(k1.hash(), k2.hash());
    }

    #[test]
    fn single_flight_executes_once_for_concurrent_misses() {
        let c = Arc::new(cache(8));
        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            let executions = Arc::clone(&executions);
            handles.push(std::thread::spawn(move || {
                match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
                    CacheDecision::Hit(..) => false,
                    CacheDecision::Execute(guard) => {
                        executions.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight long enough that the others pile up.
                        std::thread::sleep(Duration::from_millis(20));
                        guard.complete(&answer(1.0, 0.1, false), 0.95, true);
                        true
                    }
                    CacheDecision::Bypass => panic!("cache is enabled"),
                }
            }));
        }
        let leaders = handles
            .into_iter()
            .map(|h| h.join().expect("thread panicked"))
            .filter(|led| *led)
            .count();
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one execution per key");
        assert_eq!(leaders, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn abandoned_flight_releases_followers() {
        let c = Arc::new(cache(8));
        // Leader registers a flight, then drops the guard without completing.
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => drop(guard),
            _ => panic!("expected a miss"),
        }
        // A follower must now become a leader rather than hang.
        assert!(matches!(
            c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None),
            CacheDecision::Execute(_)
        ));
    }

    #[test]
    fn deadline_expired_follower_executes_unregistered() {
        let c = cache(8);
        // Register a flight that never completes.
        let leader = match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), None) {
            CacheDecision::Execute(guard) => guard,
            _ => panic!("expected a miss"),
        };
        // A second caller with an already-expired deadline falls through.
        let past = Instant::now();
        match c.decide("v", &query("n"), &AnswerContract::at_confidence(0.95), Some(past)) {
            CacheDecision::Execute(guard) => guard.complete(&answer(1.0, 0.1, false), 0.95, true),
            _ => panic!("expired follower must execute"),
        }
        assert_eq!(c.len(), 1);
        // The original leader's completion still works (overwrites).
        leader.complete(&answer(1.0, 0.1, false), 0.95, true);
        assert_eq!(c.len(), 1);
    }
}

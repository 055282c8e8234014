//! Graceful degradation: keep answering queries when parts of the sample
//! family are missing or corrupt.
//!
//! The paper's middleware sits between applications and the warehouse; an
//! operational deployment of it must survive the sample store rotting
//! underneath it. [`ResilientSystem`] wraps the primary
//! [`SmallGroupSampler`] and answers every query down a *degradation
//! ladder*:
//!
//! 1. **primary** — the full small-group plan (Section 4.2.2);
//! 2. **degraded** — the same plan, but one or more small group tables were
//!    disabled by a salvaged load; the overall sample covers their rows;
//! 3. **overall** — only the uniform overall sample (no small group
//!    tables);
//! 4. **exact** — scan the base view directly (also the only rung that can
//!    serve MIN/MAX, which sampling cannot bound).
//!
//! Every answer is tagged with the [`ServingTier`] that produced it, and an
//! optional per-query *row budget* picks the highest rung whose scan cost
//! fits — a budget-capped exact scan inflates weights by `N/k` and flags
//! the answer [`ApproxAnswer::partial`].
//!
//! [`ResilientSystem::answer_bounded`] extends the budget machinery to a
//! serving front-end's per-request constraints ([`QueryBound`]): a
//! client-requested row cap, a *deadline budget* derived from the time
//! remaining before the query's deadline, and a cooperative
//! [`CancelToken`] installed ambiently around the ladder walk so every
//! scan any rung triggers stops claiming morsels once the deadline
//! trips. Deadline-driven step-downs are tallied separately
//! (`aqp_tier_fallback_total{reason="deadline"}`) from static budget
//! ones (`reason="budget"`), so operators can tell "the contract asked
//! for less" apart from "we were about to blow the deadline".

use crate::answer::{ApproxAnswer, ServingTier};
use crate::error::{AqpError, AqpResult};
use crate::parts::{answer_from_parts, Part};
use crate::smallgroup::SmallGroupSampler;
use crate::system::AqpSystem;
use aqp_query::{CancelToken, Query, Weighting};
use aqp_storage::Table;
use std::fmt;
use std::path::Path;

/// What [`ResilientSystem::open`] found on disk.
#[derive(Debug, Clone, Default)]
pub struct OpenReport {
    /// The family loaded with every checksum passing.
    pub primary_intact: bool,
    /// Units disabled by a salvaged load (empty when intact).
    pub disabled_units: Vec<String>,
    /// Why the primary is absent or degraded, for operator logs.
    pub primary_error: Option<String>,
}

/// An [`AqpSystem`] that never refuses a query it can possibly serve: it
/// walks the degradation ladder (primary sampler → overall sample → exact
/// base-table scan) instead of surfacing missing/corrupt-sample errors.
#[derive(Debug, Clone)]
pub struct ResilientSystem {
    primary: Option<SmallGroupSampler>,
    view: Option<Table>,
    row_budget: Option<usize>,
    threads: usize,
    name: String,
}

impl ResilientSystem {
    /// Wrap an in-memory sampler.
    pub fn from_sampler(sampler: SmallGroupSampler) -> Self {
        let name = format!("Resilient({})", sampler.name());
        ResilientSystem {
            primary: Some(sampler),
            view: None,
            row_budget: None,
            threads: 1,
            name,
        }
    }

    /// A system with no sample family at all — every query is served from
    /// the base view at the exact tier.
    pub fn exact_only(view: Table) -> Self {
        ResilientSystem {
            primary: None,
            view: Some(view),
            row_budget: None,
            threads: 1,
            name: "Resilient(exact)".into(),
        }
    }

    /// Open a persisted sample family, degrading instead of failing:
    /// a fully intact file yields a primary sampler; a partially corrupt
    /// one is salvaged with the lost units disabled; an unreadable one
    /// yields a system with no primary (attach a view with
    /// [`Self::with_view`] so the exact tier can serve). The report says
    /// which of those happened.
    pub fn open(path: impl AsRef<Path>) -> (Self, OpenReport) {
        let (sys, report) = Self::open_inner(path.as_ref());
        aqp_obs::gauge("aqp_disabled_units", &[]).set(report.disabled_units.len() as i64);
        if !report.primary_intact {
            let error = report.primary_error.clone().unwrap_or_default();
            let disabled = report.disabled_units.join(",");
            aqp_obs::event::warn(
                "core::resilience",
                "sample family degraded at open",
                &[
                    ("path", &path.as_ref().to_string_lossy()),
                    ("error", &error),
                    ("disabled_units", &disabled),
                ],
            );
        }
        (sys, report)
    }

    fn open_inner(path: &Path) -> (Self, OpenReport) {
        match SmallGroupSampler::load(path) {
            Ok(sampler) => {
                let report = OpenReport {
                    primary_intact: true,
                    ..OpenReport::default()
                };
                (Self::from_sampler(sampler), report)
            }
            Err(load_err) => {
                // load() quarantines corrupt files; retry the salvage
                // against wherever the bytes now live.
                let quarantined = quarantine_path(path);
                let salvage_target = if quarantined.exists() { &quarantined } else { path };
                match SmallGroupSampler::load_salvage(salvage_target) {
                    Ok((sampler, lost)) if !lost.is_empty() => {
                        let report = OpenReport {
                            primary_intact: false,
                            disabled_units: lost,
                            primary_error: Some(load_err.to_string()),
                        };
                        (Self::from_sampler(sampler), report)
                    }
                    Ok((sampler, _)) => {
                        // Salvage found nothing wrong with the tables; the
                        // damage was confined to the whole-file checksum
                        // framing. Serve at full strength but report it.
                        let report = OpenReport {
                            primary_intact: false,
                            disabled_units: Vec::new(),
                            primary_error: Some(load_err.to_string()),
                        };
                        (Self::from_sampler(sampler), report)
                    }
                    Err(salvage_err) => {
                        let report = OpenReport {
                            primary_intact: false,
                            disabled_units: Vec::new(),
                            primary_error: Some(format!("{load_err}; salvage: {salvage_err}")),
                        };
                        let sys = ResilientSystem {
                            primary: None,
                            view: None,
                            row_budget: None,
                            threads: 1,
                            name: "Resilient(exact)".into(),
                        };
                        (sys, report)
                    }
                }
            }
        }
    }

    /// Attach the base view, enabling the exact tier (and MIN/MAX).
    pub fn with_view(mut self, view: Table) -> Self {
        self.view = Some(view);
        self
    }

    /// Cap the rows any single query may scan. Tiers whose plan exceeds
    /// the budget are skipped; a budget-capped exact scan is flagged
    /// [`ApproxAnswer::partial`].
    pub fn with_row_budget(mut self, budget: usize) -> Self {
        self.row_budget = Some(budget);
        self
    }

    /// Worker threads for every tier's scans (primary sample plans and
    /// exact fallbacks alike). Thread count never changes an answer — the
    /// morsel-driven executor merges partial states in morsel order — so
    /// this interacts safely with row budgets: a budget-capped scan
    /// truncates to the same `k` rows and the same morsels at any value.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        if let Some(primary) = self.primary.as_mut() {
            primary.set_threads(self.threads);
        }
        self
    }

    /// The wrapped primary sampler, if one loaded.
    pub fn primary(&self) -> Option<&SmallGroupSampler> {
        self.primary.as_ref()
    }

    fn fits(&self, rows: usize) -> bool {
        self.row_budget.is_none_or(|b| rows <= b)
    }

    /// The exact rung: scan the base view, optionally budget-capped with
    /// `N/k` weight inflation. The only rung that can serve MIN/MAX.
    /// `budget` is the effective per-query cap (the static system budget
    /// folded with any [`QueryBound`] limits by the caller). One [`Part`]
    /// through [`answer_from_parts`], like every sampled rung.
    fn answer_exact(
        &self,
        query: &Query,
        confidence: f64,
        budget: Option<usize>,
    ) -> AqpResult<ApproxAnswer> {
        let view = self.view.as_ref().ok_or_else(|| {
            AqpError::Unsupported(
                "no tier can serve this query: sample family unavailable and \
                 no base view attached for exact fallback"
                    .into(),
            )
        })?;
        let n = view.num_rows();
        let limit = budget.filter(|&b| b < n);
        let weighting = match limit {
            // A truncated scan stands in for the whole view: inflate each
            // row by N/k so estimates stay centred, and let the w(w−1)
            // accumulators widen the intervals honestly.
            Some(k) if k > 0 => Weighting::Constant(n as f64 / k as f64),
            _ => Weighting::Unweighted,
        };
        let part = Part {
            table: view,
            mask: None,
            weighting,
            row_limit: limit,
            stratum: "base",
        };
        let exact = limit.is_none();
        let mut answer = answer_from_parts(query, &[part], confidence, self.threads, &|_| exact)?;
        answer.tier = ServingTier::Exact;
        Ok(answer)
    }

    /// Run `query` on the exact rung with no budget cap — a ground-truth
    /// oracle for offline audits (the shadow accuracy auditor re-executes
    /// sampled-tier answers through this to compare realized error
    /// against the promised CI). Deliberately bypasses the ladder walk,
    /// admission control, and every per-request bound: auditing must not
    /// contend with serving.
    pub fn answer_exact_oracle(
        &self,
        query: &Query,
        confidence: f64,
    ) -> AqpResult<ApproxAnswer> {
        self.answer_exact(query, confidence, None)
    }
}

/// Per-request serving constraints for [`ResilientSystem::answer_bounded`]:
/// what a front-end knows about one query that the system's static
/// configuration cannot — the client's row cap, how many rows the executor
/// can plausibly scan before the deadline, and the cancellation token that
/// enforces the deadline cooperatively mid-scan.
#[derive(Debug, Clone, Default)]
pub struct QueryBound {
    /// Client-requested row cap. Step-downs it forces are tallied
    /// `aqp_tier_fallback_total{reason="budget"}`.
    pub row_budget: Option<usize>,
    /// Rows affordable before the deadline (remaining time × estimated
    /// scan throughput). Step-downs it forces are tallied
    /// `reason="deadline"` — the serving tier fell so the answer could
    /// beat the clock, not because anyone asked for fewer rows.
    pub deadline_budget: Option<usize>,
    /// Cooperative cancellation token, installed ambiently for the whole
    /// ladder walk: every scan any rung runs checks it at morsel claim
    /// points, so a tripped deadline frees the executor threads within
    /// one morsel instead of finishing a doomed scan.
    pub cancel: Option<CancelToken>,
}

impl QueryBound {
    /// A bound that constrains nothing (equivalent to [`AqpSystem::answer`]).
    pub fn none() -> Self {
        Self::default()
    }

    /// A bound carrying only a deadline-derived row budget and its token.
    pub fn for_deadline(deadline_budget: usize, cancel: CancelToken) -> Self {
        QueryBound {
            row_budget: None,
            deadline_budget: Some(deadline_budget),
            cancel: Some(cancel),
        }
    }
}

/// An answer from [`ResilientSystem::answer_bounded`] plus how the bound
/// shaped it — what a serving layer needs to fill wire-level degradation
/// fields without re-deriving the ladder's decisions.
#[derive(Debug, Clone)]
pub struct BoundedAnswer {
    /// The answer, tier-tagged as always.
    pub answer: ApproxAnswer,
    /// Whether the deadline budget forced a step-down or truncated the
    /// exact rung's scan — i.e. the client got a cheaper tier *because of
    /// its deadline*, not because of any configured row cap.
    pub deadline_limited: bool,
    /// The effective row cap the ladder walked under: the minimum of the
    /// system budget and both [`QueryBound`] budgets.
    pub effective_budget: Option<usize>,
}

/// Tally a ladder step-down: the preferred rung was skipped for `reason`.
fn record_fallback(reason: &'static str) {
    aqp_obs::counter("aqp_tier_fallback_total", &[("reason", reason)]).inc();
}

fn quarantine_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    path.with_file_name(name)
}

impl AqpSystem for ResilientSystem {
    fn name(&self) -> &str {
        &self.name
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        self.answer_bounded(query, confidence, &QueryBound::none())
            .map(|b| b.answer)
    }

    fn answer_traced(
        &self,
        query: &Query,
        confidence: f64,
    ) -> AqpResult<(ApproxAnswer, aqp_obs::QueryTrace)> {
        let opened = aqp_obs::trace::begin(&query.to_string());
        let result = self.answer(query, confidence);
        let collected = if opened { aqp_obs::trace::finish() } else { None };
        let answer = result?;
        let mut trace = collected.unwrap_or_default();
        if trace.query.is_empty() {
            trace.query = query.to_string();
        }
        trace.serving_tier = answer.tier.as_str().to_string();
        trace.partial = answer.partial;
        trace.rows_scanned = answer.rows_scanned as u64;
        trace.groups = answer.groups.len() as u64;
        trace.base_rows = self
            .view
            .as_ref()
            .map(|v| v.num_rows())
            .or_else(|| self.primary.as_ref().map(|p| p.view_rows()))
            .unwrap_or(0) as u64;
        match answer.tier {
            ServingTier::Primary | ServingTier::DegradedPrimary => {
                if let Some(p) = &self.primary {
                    trace.sample_tables = p.plan_tables(query);
                }
                trace.plan = format!("union-all({})", trace.sample_tables.len());
            }
            ServingTier::Overall => {
                if let Some(p) = &self.primary {
                    trace.sample_tables = p.overall_table_names();
                }
                trace.plan = "overall-only".into();
            }
            ServingTier::Exact => {
                if let Some(v) = &self.view {
                    trace.sample_tables = vec![v.name().to_string()];
                }
                trace.plan = "exact-scan".into();
            }
        }
        Ok((answer, trace))
    }

    fn sample_bytes(&self) -> usize {
        self.primary.as_ref().map_or(0, |p| p.sample_bytes())
    }

    /// The rows the ladder walk scans for `query`, rung chosen as
    /// [`AqpSystem::answer`] chooses it (a rung that fails at plan time is
    /// not foreseen).
    fn runtime_rows(&self, query: &Query) -> usize {
        if let Some(p) = self.primary.as_ref().filter(|_| query.estimable()) {
            let rows = p.runtime_rows(query);
            let overall = p.catalog().overall_rows;
            if self.fits(rows) {
                return rows;
            }
            if self.fits(overall) || self.view.is_none() {
                return overall;
            }
        }
        let n = self.view.as_ref().map_or(0, |v| v.num_rows());
        self.row_budget.map_or(n, |b| n.min(b))
    }
}

impl ResilientSystem {
    /// [`AqpSystem::answer`] under per-request [`QueryBound`] constraints:
    /// the same degradation ladder, walked under the *tightest* of the
    /// system row budget and the bound's budgets, with the bound's cancel
    /// token installed ambiently so every rung's scans observe the
    /// deadline. Tier and partial tallies are recorded exactly as
    /// [`AqpSystem::answer`] records them (which delegates here).
    pub fn answer_bounded(
        &self,
        query: &Query,
        confidence: f64,
        bound: &QueryBound,
    ) -> AqpResult<BoundedAnswer> {
        let _guard = bound.cancel.clone().map(aqp_query::cancel::install);
        let bounded = self.answer_untallied_bounded(query, confidence, bound)?;
        let answer = &bounded.answer;
        aqp_obs::counter("aqp_serving_tier_total", &[("tier", answer.tier.as_str())]).inc();
        if answer.partial {
            aqp_obs::counter("aqp_partial_answers_total", &[]).inc();
        }
        Ok(bounded)
    }

    /// The tightest row cap the ladder must respect for this request.
    fn effective_budget(&self, bound: &QueryBound) -> Option<usize> {
        [self.row_budget, bound.row_budget, bound.deadline_budget]
            .into_iter()
            .flatten()
            .min()
    }

    /// Why `rows` does not fit the combined budgets, if it doesn't.
    /// "deadline" only when the deadline budget is the *binding* reason —
    /// the scan would have fit every static cap.
    fn budget_reason(&self, rows: usize, bound: &QueryBound) -> Option<&'static str> {
        let static_fit = self.fits(rows) && bound.row_budget.is_none_or(|b| rows <= b);
        let deadline_fit = bound.deadline_budget.is_none_or(|b| rows <= b);
        match (static_fit, deadline_fit) {
            (true, true) => None,
            (true, false) => Some("deadline"),
            (false, _) => Some("budget"),
        }
    }

    /// The ladder walk itself, with fallback counters at each step-down.
    fn answer_untallied_bounded(
        &self,
        query: &Query,
        confidence: f64,
        bound: &QueryBound,
    ) -> AqpResult<BoundedAnswer> {
        let effective_budget = self.effective_budget(bound);
        // Is the deadline budget the strict minimum of the caps? Then a
        // truncated exact scan is deadline-shaped, not budget-shaped.
        let deadline_binding = bound.deadline_budget.is_some_and(|d| {
            [self.row_budget, bound.row_budget]
                .into_iter()
                .flatten()
                .min()
                .is_none_or(|s| d < s)
        });
        let mut deadline_limited = false;
        let finish = |answer: ApproxAnswer, deadline_limited: bool| BoundedAnswer {
            deadline_limited: deadline_limited || (answer.partial && deadline_binding),
            answer,
            effective_budget,
        };

        // MIN/MAX can only be served exactly.
        if !query.estimable() {
            if self.primary.is_some() {
                record_fallback("minmax");
            }
            let ans = self.answer_exact(query, confidence, effective_budget)?;
            return Ok(finish(ans, deadline_limited));
        }

        if let Some(primary) = &self.primary {
            // Rung 1/2: the full small-group plan, tagged degraded when a
            // disabled table's rows are being covered by the overall sample.
            match self.budget_reason(primary.runtime_rows(query), bound) {
                None => match primary.answer(query, confidence) {
                    Ok(mut ans) => {
                        ans.tier = if primary.query_touches_disabled(query) {
                            ServingTier::DegradedPrimary
                        } else {
                            ServingTier::Primary
                        };
                        return Ok(finish(ans, deadline_limited));
                    }
                    Err(AqpError::Query(_)) | Err(AqpError::Unsupported(_)) => {
                        // Fall through to the next rung; any operator
                        // profiles the abandoned plan collected must not
                        // pollute the final trace.
                        aqp_obs::trace::discard_operators();
                        record_fallback("plan-error");
                    }
                    Err(e) => return Err(e),
                },
                Some(reason) => {
                    deadline_limited |= reason == "deadline";
                    record_fallback(reason);
                }
            }
            // Rung 3: overall sample only.
            let overall_rows = primary.catalog().overall_rows;
            if self.budget_reason(overall_rows, bound).is_none() || self.view.is_none() {
                if let Ok(mut ans) = primary.answer_overall_only(query, confidence) {
                    ans.tier = ServingTier::Overall;
                    // Over budget with nowhere cheaper to go: serve it
                    // anyway rather than refuse — degradation, not denial.
                    return Ok(finish(ans, deadline_limited));
                }
                aqp_obs::trace::discard_operators();
            }
        }

        // Rung 4: exact scan of the base view (budget-capped if needed).
        let ans = self.answer_exact(query, confidence, effective_budget)?;
        Ok(finish(ans, deadline_limited))
    }
}

/// Per-tier tallies across a workload, for harness and CLI reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Answers served at [`ServingTier::Primary`].
    pub primary: usize,
    /// Answers served at [`ServingTier::DegradedPrimary`].
    pub degraded: usize,
    /// Answers served at [`ServingTier::Overall`].
    pub overall: usize,
    /// Answers served at [`ServingTier::Exact`].
    pub exact: usize,
    /// Answers flagged partial (budget-truncated), across all tiers.
    pub partial: usize,
}

impl TierCounts {
    /// Fold one answer into the tallies.
    pub fn record(&mut self, answer: &ApproxAnswer) {
        match answer.tier {
            ServingTier::Primary => self.primary += 1,
            ServingTier::DegradedPrimary => self.degraded += 1,
            ServingTier::Overall => self.overall += 1,
            ServingTier::Exact => self.exact += 1,
        }
        if answer.partial {
            self.partial += 1;
        }
    }

    /// Total answers recorded.
    pub fn total(&self) -> usize {
        self.primary + self.degraded + self.overall + self.exact
    }

    /// How many answers were served below the primary tier.
    pub fn degraded_total(&self) -> usize {
        self.degraded + self.overall + self.exact
    }
}

impl fmt::Display for TierCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primary {} · degraded {} · overall {} · exact {} (partial {})",
            self.primary, self.degraded, self.overall, self.exact, self.partial
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallgroup::SmallGroupConfig;
    use aqp_query::AggExpr;
    use aqp_storage::{DataType, SchemaBuilder, Value};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// `aqp_tier_fallback_total` lives in the process-global registry, and
    /// two tests below assert exact deltas of it. Every test whose ladder
    /// walk tallies a `budget` or `deadline` step-down holds this gate, so
    /// none of them counts inside another's before/after window.
    static LADDER_GATE: Mutex<()> = Mutex::new(());

    fn ladder_gate() -> MutexGuard<'static, ()> {
        LADDER_GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..200 {
            let g = if i % 20 == 0 { "rare" } else { "common" };
            t.push_row(&[g.into(), (i as f64).into()]).unwrap();
        }
        t
    }

    fn sampler() -> SmallGroupSampler {
        SmallGroupSampler::build(
            &view(),
            SmallGroupConfig {
                base_rate: 0.2,
                small_group_fraction: 0.1,
                seed: 7,
                exclude_columns: vec!["x".into()],
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn healthy_system_serves_primary() {
        let sys = ResilientSystem::from_sampler(sampler());
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = sys.answer(&q, 0.95).unwrap();
        assert_eq!(ans.tier, ServingTier::Primary);
        assert!(!ans.partial);
        assert!(sys.name().contains("SmGroup"));
        assert!(sys.sample_bytes() > 0);
    }

    #[test]
    fn min_max_served_by_exact_tier() {
        let sys = ResilientSystem::from_sampler(sampler()).with_view(view());
        let q = Query::builder()
            .aggregate(AggExpr::min("x", "mn"))
            .aggregate(AggExpr::max("x", "mx"))
            .build()
            .unwrap();
        let ans = sys.answer(&q, 0.95).unwrap();
        assert_eq!(ans.tier, ServingTier::Exact);
        assert_eq!(ans.groups[0].values[0].value(), 0.0);
        assert_eq!(ans.groups[0].values[1].value(), 199.0);
        assert!(ans.groups[0].values[0].is_exact());

        // Without a view, MIN/MAX has no serving tier.
        let sys = ResilientSystem::from_sampler(sampler());
        assert!(matches!(sys.answer(&q, 0.95), Err(AqpError::Unsupported(_))));
    }

    #[test]
    fn budget_steps_down_to_overall() {
        let _gate = ladder_gate();
        let s = sampler();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let primary_cost = s.runtime_rows(&q);
        let overall_cost = s.catalog().overall_rows;
        assert!(overall_cost < primary_cost);

        let sys = ResilientSystem::from_sampler(s).with_row_budget(overall_cost);
        let ans = sys.answer(&q, 0.95).unwrap();
        assert_eq!(ans.tier, ServingTier::Overall);
        assert!(sys.runtime_rows(&q) <= overall_cost);
    }

    #[test]
    fn budget_caps_exact_scan_and_flags_partial() {
        let sys = ResilientSystem::exact_only(view()).with_row_budget(50);
        let q = Query::builder().count().build().unwrap();
        let ans = sys.answer(&q, 0.95).unwrap();
        assert_eq!(ans.tier, ServingTier::Exact);
        assert!(ans.partial);
        assert_eq!(ans.rows_scanned, 50);
        // N/k inflation keeps COUNT centred: 50 rows × 4.0 = 200.
        assert!((ans.groups[0].values[0].value() - 200.0).abs() < 1e-9);
        assert!(!ans.groups[0].values[0].is_exact());

        // Without a budget the scan is exact and complete.
        let sys = ResilientSystem::exact_only(view());
        let ans = sys.answer(&q, 0.95).unwrap();
        assert!(!ans.partial);
        assert!(ans.groups[0].values[0].is_exact());
        assert_eq!(ans.groups[0].values[0].value(), 200.0);
    }

    #[test]
    fn open_missing_file_degrades_to_exact() {
        let dir = std::env::temp_dir().join(format!("aqp_resil_open_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (sys, report) = ResilientSystem::open(dir.join("nope.aqps"));
        assert!(!report.primary_intact);
        assert!(report.primary_error.is_some());
        let sys = sys.with_view(view());
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = sys.answer(&q, 0.95).unwrap();
        assert_eq!(ans.tier, ServingTier::Exact);
        assert_eq!(
            ans.group(&[Value::Utf8("rare".into())]).unwrap().values[0].value(),
            10.0
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_intact_file() {
        let dir = std::env::temp_dir().join(format!("aqp_resil_ok_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("family.aqps");
        sampler().save(&path).unwrap();
        let (sys, report) = ResilientSystem::open(&path);
        assert!(report.primary_intact);
        assert!(report.disabled_units.is_empty());
        let q = Query::builder().count().group_by("g").build().unwrap();
        assert_eq!(sys.answer(&q, 0.95).unwrap().tier, ServingTier::Primary);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn threads_never_change_answers_across_tiers() {
        let _gate = ladder_gate();
        let q = Query::builder().count().sum("x").group_by("g").build().unwrap();
        // Primary tier and budget-capped exact tier, serial vs threaded.
        for budget in [None, Some(50)] {
            let mk = |threads: usize| {
                let mut sys = ResilientSystem::from_sampler(sampler())
                    .with_view(view())
                    .with_threads(threads);
                if let Some(b) = budget {
                    sys = sys.with_row_budget(b);
                }
                sys
            };
            let base = mk(1).answer(&q, 0.95).unwrap();
            for threads in [2, 4, 8] {
                let ans = mk(threads).answer(&q, 0.95).unwrap();
                assert_eq!(ans.tier, base.tier);
                assert_eq!(ans.partial, base.partial);
                assert_eq!(ans.num_groups(), base.num_groups());
                for g in &base.groups {
                    let other = ans.group(&g.key).unwrap();
                    for (a, b) in g.values.iter().zip(&other.values) {
                        assert_eq!(
                            a.value().to_bits(),
                            b.value().to_bits(),
                            "budget {budget:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn runtime_rows_is_what_the_ladder_scans() {
        let _gate = ladder_gate();
        let count = Query::builder().count().group_by("g").build().unwrap();
        let min_max = Query::builder()
            .aggregate(AggExpr::min("x", "mn"))
            .aggregate(AggExpr::max("x", "mx"))
            .group_by("g")
            .build()
            .unwrap();
        let overall = sampler().catalog().overall_rows;
        let primary = || ResilientSystem::from_sampler(sampler());
        let mut salvaged = sampler();
        salvaged.disabled.insert(0);
        use ServingTier::{DegradedPrimary, Exact, Overall, Primary};
        let with_view = || primary().with_view(view());
        let exact_only = || ResilientSystem::exact_only(view());
        let cases = [
            ("primary", primary(), &count, Primary),
            ("degraded", ResilientSystem::from_sampler(salvaged), &count, DegradedPrimary),
            ("overall", primary().with_row_budget(overall), &count, Overall),
            ("overall, no view", primary().with_row_budget(overall - 1), &count, Overall),
            ("exact, over budget", with_view().with_row_budget(overall - 1), &count, Exact),
            ("min/max", with_view(), &min_max, Exact),
            ("min/max, budget", with_view().with_row_budget(50), &min_max, Exact),
            ("exact only", exact_only(), &count, Exact),
            ("exact only, budget", exact_only().with_row_budget(50), &count, Exact),
        ];
        for (what, sys, q, tier) in cases {
            let ans = sys.answer(q, 0.95).unwrap();
            assert_eq!(ans.tier, tier, "{what}");
            assert_eq!(sys.runtime_rows(q), ans.rows_scanned, "{what}");
        }
    }

    #[test]
    fn deadline_budget_steps_down_with_deadline_reason() {
        let _gate = ladder_gate();
        let s = sampler();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let primary_cost = s.runtime_rows(&q);
        let overall_cost = s.catalog().overall_rows;
        assert!(overall_cost < primary_cost);

        let read = || {
            aqp_obs::global()
                .snapshot()
                .counter_value("aqp_tier_fallback_total", &[("reason", "deadline")])
                .unwrap_or(0)
        };
        let before = read();
        let sys = ResilientSystem::from_sampler(s);
        let bound = QueryBound::for_deadline(overall_cost, CancelToken::new());
        let out = sys.answer_bounded(&q, 0.95, &bound).unwrap();
        assert_eq!(out.answer.tier, ServingTier::Overall);
        assert!(out.deadline_limited, "tier fell because of the deadline");
        assert!(!out.answer.partial, "overall-tier answer is complete, not truncated");
        assert_eq!(out.effective_budget, Some(overall_cost));
        assert_eq!(read(), before + 1, "step-down tallied under reason=deadline");
    }

    #[test]
    fn client_row_budget_keeps_budget_reason() {
        let _gate = ladder_gate();
        let s = sampler();
        let q = Query::builder().count().group_by("g").build().unwrap();
        let overall_cost = s.catalog().overall_rows;
        let read = |reason: &str| {
            aqp_obs::global()
                .snapshot()
                .counter_value("aqp_tier_fallback_total", &[("reason", reason)])
                .unwrap_or(0)
        };
        let (bud, dead) = (read("budget"), read("deadline"));
        let sys = ResilientSystem::from_sampler(s);
        let bound = QueryBound { row_budget: Some(overall_cost), ..QueryBound::none() };
        let out = sys.answer_bounded(&q, 0.95, &bound).unwrap();
        assert_eq!(out.answer.tier, ServingTier::Overall);
        assert!(!out.deadline_limited);
        assert_eq!(read("budget"), bud + 1, "client cap tallies reason=budget");
        assert_eq!(read("deadline"), dead, "no deadline fallback recorded");
    }

    #[test]
    fn deadline_capped_exact_scan_is_deadline_limited() {
        let sys = ResilientSystem::exact_only(view());
        let q = Query::builder().count().build().unwrap();
        let bound = QueryBound::for_deadline(50, CancelToken::new());
        let out = sys.answer_bounded(&q, 0.95, &bound).unwrap();
        assert_eq!(out.answer.tier, ServingTier::Exact);
        assert!(out.answer.partial, "truncated scan stays flagged partial");
        assert!(out.deadline_limited);
        assert_eq!(out.answer.rows_scanned, 50);
        // N/k inflation keeps COUNT centred: 50 rows × 4.0 = 200.
        assert!((out.answer.groups[0].values[0].value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn tripped_token_surfaces_cancelled() {
        let sys = ResilientSystem::exact_only(view());
        let q = Query::builder().count().build().unwrap();
        let token = CancelToken::new();
        token.cancel();
        let bound = QueryBound { cancel: Some(token), ..QueryBound::none() };
        match sys.answer_bounded(&q, 0.95, &bound) {
            Err(AqpError::Cancelled { deadline: false }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn empty_bound_matches_plain_answer() {
        let sys = ResilientSystem::from_sampler(sampler());
        let q = Query::builder().count().sum("x").group_by("g").build().unwrap();
        let plain = sys.answer(&q, 0.95).unwrap();
        let bounded = sys.answer_bounded(&q, 0.95, &QueryBound::none()).unwrap();
        assert_eq!(bounded.answer.tier, plain.tier);
        assert!(!bounded.deadline_limited);
        assert_eq!(bounded.effective_budget, None);
        assert_eq!(bounded.answer.num_groups(), plain.num_groups());
        for g in &plain.groups {
            let other = bounded.answer.group(&g.key).unwrap();
            for (x, y) in g.values.iter().zip(&other.values) {
                assert_eq!(x.value().to_bits(), y.value().to_bits());
            }
        }
    }

    #[test]
    fn tier_counts_roll_up() {
        let mut counts = TierCounts::default();
        let mut ans = ApproxAnswer::default();
        counts.record(&ans);
        ans.tier = ServingTier::Exact;
        ans.partial = true;
        counts.record(&ans);
        ans.tier = ServingTier::Overall;
        ans.partial = false;
        counts.record(&ans);
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.primary, 1);
        assert_eq!(counts.exact, 1);
        assert_eq!(counts.overall, 1);
        assert_eq!(counts.partial, 1);
        assert_eq!(counts.degraded_total(), 2);
        let s = counts.to_string();
        assert!(s.contains("primary 1") && s.contains("partial 1"), "{s}");
    }
}

//! The common interface all AQP systems implement.

use crate::answer::ApproxAnswer;
use crate::error::AqpResult;
use aqp_query::Query;

/// An approximate query processing system: something built during a
/// pre-processing phase that can answer aggregation queries approximately
/// at runtime.
///
/// All four systems of the paper's experimental comparison implement this
/// trait — small group sampling, uniform sampling, basic congress and
/// outlier indexing — so the experiment harness can treat them uniformly
/// and enforce the equal-sample-space fairness rule.
pub trait AqpSystem {
    /// Human-readable system name (e.g. `"SmGroup"`, `"Uniform"`).
    fn name(&self) -> &str;

    /// Produce an approximate answer for `query` at the given confidence
    /// level for the reported intervals.
    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer>;

    /// Total bytes of sample tables held by this system (the paper's
    /// Section 5.4.2 space-overhead metric).
    fn sample_bytes(&self) -> usize;

    /// Number of sample rows this system would scan to answer `query`
    /// (before predicate filtering) — the runtime sample-space cost the
    /// fairness rule of Section 5.2.3 equalises across systems.
    fn runtime_rows(&self, query: &Query) -> usize;

    /// Answer `query` and return its [`aqp_obs::RequestRecord`] alongside
    /// the answer. The default implementation wraps [`Self::answer`] with
    /// a trace collector, so every span and operator the execution emits
    /// lands in the record, and fills the members any system can report
    /// (tier, partial, rows scanned, groups, and its name as the plan).
    /// Systems that know more — which sample tables the plan consulted,
    /// base-relation row counts — override this and enrich the record.
    /// Tracing never changes the answer: it is `answer` plus bookkeeping.
    fn answer_traced(
        &self,
        query: &Query,
        confidence: f64,
    ) -> AqpResult<(ApproxAnswer, aqp_obs::RequestRecord)> {
        let (answer, mut record) = traced(query, || self.answer(query, confidence))?;
        record.plan = self.name().to_string();
        answer.record_into(&mut record);
        Ok((answer, record))
    }
}

/// Run `answer` under a trace collector opened for `query` and return its
/// answer with the collected record (query text, one `execute` stage,
/// spans and operators). The collector is closed whether `answer` fails
/// or not; when an outer caller already holds it, the record carries only
/// the query text.
pub(crate) fn traced(
    query: &Query,
    answer: impl FnOnce() -> AqpResult<ApproxAnswer>,
) -> AqpResult<(ApproxAnswer, aqp_obs::RequestRecord)> {
    let text = query.to_string();
    let opened = aqp_obs::trace::begin(&text);
    let result = answer();
    let collected = if opened { aqp_obs::trace::finish() } else { None };
    let record =
        collected.unwrap_or_else(|| aqp_obs::RequestRecord { query: text, ..Default::default() });
    Ok((result?, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::ApproxAnswer;

    /// The trait must be object-safe: the harness stores `Box<dyn AqpSystem>`.
    struct Dummy;
    impl AqpSystem for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn answer(&self, _q: &Query, _c: f64) -> AqpResult<ApproxAnswer> {
            Ok(ApproxAnswer::default())
        }
        fn sample_bytes(&self) -> usize {
            0
        }
        fn runtime_rows(&self, _q: &Query) -> usize {
            0
        }
    }

    /// A system whose every answer fails.
    struct Failing;
    impl AqpSystem for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn answer(&self, _q: &Query, _c: f64) -> AqpResult<ApproxAnswer> {
            Err(crate::error::AqpError::Unsupported("nothing answers".into()))
        }
        fn sample_bytes(&self) -> usize {
            0
        }
        fn runtime_rows(&self, _q: &Query) -> usize {
            0
        }
    }

    #[test]
    fn answer_traced_closes_its_collector_and_fills_the_record() {
        let q = Query::builder().count().build().unwrap();
        assert!(Failing.answer_traced(&q, 0.95).is_err());
        assert!(!aqp_obs::trace::is_active(), "a failed answer leaves no open collector");
        let (_, record) = Dummy.answer_traced(&q, 0.95).unwrap();
        assert!(!aqp_obs::trace::is_active());
        assert_eq!((record.outcome.as_str(), record.plan.as_str()), ("answer", "dummy"));
        assert_eq!(record.query, q.to_string());
        let names: Vec<&str> = record.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["execute"]);
        assert_eq!(aqp_obs::RequestRecord::from_json(&record.to_json()), Ok(record));
    }

    #[test]
    fn object_safety() {
        let boxed: Box<dyn AqpSystem> = Box::new(Dummy);
        assert_eq!(boxed.name(), "dummy");
        let q = Query::builder().count().build().unwrap();
        assert_eq!(boxed.answer(&q, 0.95).unwrap().num_groups(), 0);
    }
}

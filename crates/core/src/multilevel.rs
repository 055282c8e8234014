//! Multi-level group-size hierarchies — the paper's Section 4.2.3
//! extension.
//!
//! Small group sampling is a two-level hierarchy: small groups at 100 %,
//! everything else at the base rate `r`. "This approach could be extended
//! to a multi-level hierarchy. For example, one could sample 100% of rows
//! from small groups, 10% of rows from 'medium-sized' groups, and 1% of
//! rows from large groups."
//!
//! [`MultiLevelSampler`] implements exactly that: per column, distinct
//! values are ranked by ascending frequency and partitioned into levels —
//! the rarest values covering a fraction `f₀` of the rows form level 0
//! (sampled at `rate₀`, typically 1.0), the next `f₁` mass forms level 1
//! (sampled at `rate₁`), and the remaining *common* values are served by
//! the overall sample at the base rate. Every sample row carries a bitmask
//! of the (column, level) strata its values belong to, and the runtime
//! exclusion masks keep the strata disjoint exactly as in small group
//! sampling. Strata with rate 1.0 yield exact answers.

use crate::answer::ApproxAnswer;
use crate::colscan::{classify_rows, column_frequency, sample_table, tie_rank, KeyCode};
use crate::error::{AqpError, AqpResult};
use crate::parts::{answer_from_parts, Part};
use crate::system::AqpSystem;
use aqp_query::{DataSource, Query, Weighting};
use aqp_sampling::{BernoulliSampler, Design, ReservoirSampler};
use aqp_storage::{BitSet, BitmaskColumn, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

/// Configuration for multi-level sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelConfig {
    /// Base rate `r` of the overall sample serving the common values.
    pub base_rate: f64,
    /// Levels from rarest to most common: `(row-mass fraction, rate)`.
    /// E.g. `[(0.005, 1.0), (0.02, 0.1)]`: the rarest values covering 0.5 %
    /// of rows are kept exactly; the next 2 % of row mass is sampled at
    /// 10 %.
    pub levels: Vec<(f64, f64)>,
    /// Distinct-value cut-off τ.
    pub tau: usize,
    /// RNG seed.
    pub seed: u64,
    /// Consider only these columns, when set.
    pub restrict_columns: Option<Vec<String>>,
}

impl Default for MultiLevelConfig {
    fn default() -> Self {
        MultiLevelConfig {
            base_rate: 0.01,
            levels: vec![(0.005, 1.0), (0.02, 0.1)],
            tau: 5000,
            seed: 42,
            restrict_columns: None,
        }
    }
}

impl MultiLevelConfig {
    fn validate(&self) -> AqpResult<()> {
        if !(self.base_rate > 0.0 && self.base_rate <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "base_rate must be in (0,1], got {}",
                self.base_rate
            )));
        }
        if self.levels.is_empty() {
            return Err(AqpError::InvalidConfig("need at least one level".into()));
        }
        let total: f64 = self.levels.iter().map(|(f, _)| f).sum();
        if !(0.0..1.0).contains(&total) {
            return Err(AqpError::InvalidConfig(format!(
                "level fractions must sum to less than 1, got {total}"
            )));
        }
        for &(f, rate) in &self.levels {
            if f <= 0.0 || !(rate > 0.0 && rate <= 1.0) {
                return Err(AqpError::InvalidConfig(format!(
                    "bad level (fraction {f}, rate {rate})"
                )));
            }
        }
        if self.tau == 0 {
            return Err(AqpError::InvalidConfig("tau must be positive".into()));
        }
        Ok(())
    }
}

/// One (column, level) stratum: its table, rate, and member values.
#[derive(Debug, Clone)]
pub(crate) struct LevelEntry {
    column: String,
    level: usize,
    rate: f64,
    pub(crate) table: Table,
    /// Key codes of the values belonging to this stratum, for exactness
    /// tests on the group keys' digits (the tables share the view's
    /// dictionaries, so a code means the same value in every one).
    codes: HashSet<KeyCode>,
}

/// A multi-level sample family.
#[derive(Debug, Clone)]
pub struct MultiLevelSampler {
    config: MultiLevelConfig,
    view_rows: usize,
    pub(crate) entries: Vec<LevelEntry>,
    pub(crate) overall: Table,
    overall_weight: f64,
}

impl MultiLevelSampler {
    /// Run the two-pass pre-processing.
    pub fn build(view: &Table, config: MultiLevelConfig) -> AqpResult<Self> {
        config.validate()?;
        let n = view.num_rows();
        let src = DataSource::Wide(view);

        // Candidate columns.
        let columns: Vec<String> = view
            .schema()
            .names()
            .filter(|name| match &config.restrict_columns {
                Some(allowed) => allowed.iter().any(|c| c == name),
                None => true,
            })
            .map(str::to_owned)
            .collect();
        let accessors = columns
            .iter()
            .map(|c| src.resolve(c))
            .collect::<Result<Vec<_>, _>>()?;

        // Pass 1, one column at a time, then assign values to levels: rank
        // ascending by frequency, fill level buckets by cumulative row mass.
        struct ColumnLevels {
            col_idx: usize,
            /// value code → level index.
            assignment: HashMap<KeyCode, usize>,
        }
        let mut leveled: Vec<ColumnLevels> = Vec::new();
        for (ci, acc) in accessors.iter().enumerate() {
            let freq = column_frequency(acc.column, config.tau);
            let Some(counts) = freq.counts() else { continue };
            let mut pairs: Vec<(KeyCode, u64)> = counts.map(|(code, count)| (*code, count)).collect();
            if pairs.len() <= 1 {
                continue;
            }
            let rank = tie_rank(acc.column);
            pairs.sort_by_cached_key(|&(code, count)| (count, rank(&code)));

            let mut assignment = HashMap::new();
            let mut covered = 0u64;
            let mut level = 0usize;
            let mut threshold = config.levels[0].0 * n as f64;
            for (code, count) in pairs {
                if covered as f64 + count as f64 > threshold {
                    // Advance to the first level whose cumulative threshold
                    // accommodates this value; stop if none does.
                    let mut cumulative: f64 = config.levels[..=level].iter().map(|(f, _)| f).sum();
                    loop {
                        level += 1;
                        if level >= config.levels.len() {
                            break;
                        }
                        cumulative += config.levels[level].0;
                        threshold = cumulative * n as f64;
                        if (covered + count) as f64 <= threshold {
                            break;
                        }
                    }
                    if level >= config.levels.len() {
                        break;
                    }
                }
                assignment.insert(code, level);
                covered += count;
            }
            if !assignment.is_empty() {
                leveled.push(ColumnLevels { col_idx: ci, assignment });
            }
        }

        // Unit list: one per (column, level) that actually has values,
        // ordered exact-first (level ascending), then by column.
        let mut unit_specs: Vec<(usize, usize)> = Vec::new(); // (leveled idx, level)
        for level in 0..config.levels.len() {
            for (li, cl) in leveled.iter().enumerate() {
                if cl.assignment.values().any(|&l| l == level) {
                    unit_specs.push((li, level));
                }
            }
        }
        let num_units = unit_specs.len();
        // (leveled idx, level) → unit index.
        let unit_of: HashMap<(usize, usize), usize> = unit_specs
            .iter()
            .enumerate()
            .map(|(u, &spec)| (spec, u))
            .collect();

        // Pass 2, one column at a time: tag every row with the strata its
        // values belong to (at most one per column).
        let width = num_units.max(1).div_ceil(64);
        let mut mask_words = vec![0u64; n * width];
        let mut tagged: Vec<(usize, usize)> = Vec::new(); // (row, unit)
        for (li, cl) in leveled.iter().enumerate() {
            let column = accessors[cl.col_idx].column;
            for (row, level) in classify_rows(column, |code| cl.assignment.get(&code).copied()) {
                let u = unit_of[&(li, level)];
                mask_words[row * width + u / 64] |= 1u64 << (u % 64);
                tagged.push((row, u));
            }
        }
        let masks = BitmaskColumn::from_words(width, mask_words);
        // Stable: a row's strata stay in column order.
        tagged.sort_by_key(|&(row, _)| row);

        // One random stream feeds the level samples and the overall
        // reservoir, so draw in row order, a row's strata first.
        let samplers: Vec<BernoulliSampler> = unit_specs
            .iter()
            .map(|&(_, level)| BernoulliSampler::new(config.levels[level].1))
            .collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let overall_target = ((n as f64 * config.base_rate).round() as usize).min(n);
        let mut reservoir = ReservoirSampler::new(overall_target);
        let mut unit_rows: Vec<Vec<usize>> = vec![Vec::new(); num_units];
        let mut tagged = tagged.into_iter().peekable();
        for row in 0..n {
            while let Some((_, u)) = tagged.next_if(|&(r, _)| r == row) {
                if samplers[u].include(&mut rng) {
                    unit_rows[u].push(row);
                }
            }
            reservoir.observe(row, &mut rng);
        }

        let sampled = reservoir.items().len();
        let overall_rate = if n == 0 { 1.0 } else { (sampled as f64 / n as f64).min(1.0) };
        let mut indices = reservoir.into_items();
        indices.sort_unstable();
        let overall = sample_table(view, &masks, "overall", &indices);

        let mut entries = Vec::with_capacity(num_units);
        for (u, &(li, level)) in unit_specs.iter().enumerate() {
            let cl = &leveled[li];
            let codes = (cl.assignment.iter())
                .filter(|(_, &l)| l == level)
                .map(|(&code, _)| code)
                .collect();
            entries.push(LevelEntry {
                column: columns[cl.col_idx].clone(),
                level,
                rate: config.levels[level].1,
                table: sample_table(
                    view,
                    &masks,
                    format!("ml_{}_{}", columns[cl.col_idx], level),
                    &unit_rows[u],
                ),
                codes,
            });
        }

        Ok(MultiLevelSampler {
            config,
            view_rows: n,
            entries,
            overall,
            overall_weight: if overall_rate > 0.0 { 1.0 / overall_rate } else { 1.0 },
        })
    }

    /// The configuration the family was built with.
    pub fn config(&self) -> &MultiLevelConfig {
        &self.config
    }

    /// Rows in the source view.
    pub fn view_rows(&self) -> usize {
        self.view_rows
    }

    /// Per-stratum summary: `(column, level, rate, rows)`.
    pub fn strata(&self) -> Vec<(&str, usize, f64, usize)> {
        self.entries
            .iter()
            .map(|e| (e.column.as_str(), e.level, e.rate, e.table.num_rows()))
            .collect()
    }

    /// Columns that received at least one level table.
    pub fn leveled_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.entries.iter().map(|e| e.column.as_str()).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Number of (column, level) strata.
    pub fn num_strata(&self) -> usize {
        self.entries.len()
    }

    fn applicable_units(&self, query: &Query) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| query.group_by.contains(&e.column))
            .map(|(i, _)| i)
            .collect()
    }
}

impl AqpSystem for MultiLevelSampler {
    fn name(&self) -> &str {
        "MultiLevel"
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let applicable = self.applicable_units(query);
        let width = self.entries.len().max(1);

        let mut parts: Vec<Part<'_>> = Vec::new();
        for (j, &u) in applicable.iter().enumerate() {
            let entry = &self.entries[u];
            let mask = BitSet::from_bits(width, applicable[..j].iter().copied());
            let weighting = Weighting::Constant(1.0 / entry.rate);
            parts.push(Part::new(&entry.table, Some(mask), weighting, "small-group"));
        }
        let mask = BitSet::from_bits(width, applicable.iter().copied());
        let weighting = Weighting::Constant(self.overall_weight);
        parts.push(Part::new(&self.overall, Some(mask), weighting, "overall"));

        // The fully sampled applicable levels, each with its column's
        // position in the group key (resolved once, not per group).
        let exact_levels: Vec<(&HashSet<KeyCode>, usize)> = applicable
            .iter()
            .map(|&u| &self.entries[u])
            .filter(|e| e.rate >= 1.0)
            .map(|e| {
                let pos = (query.group_by.iter())
                    .position(|g| *g == e.column)
                    .expect("applicable implies present");
                (&e.codes, pos)
            })
            .collect();
        let is_exact = |digits: &[KeyCode]| {
            exact_levels.iter().any(|(codes, pos)| codes.contains(&digits[*pos]))
        };
        let design =
            |digits: &[KeyCode]| if is_exact(digits) { Design::Exact } else { Design::Scaled };
        answer_from_parts(query, &parts, confidence, 1, &design)
    }

    fn sample_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.table.byte_size()).sum::<usize>()
            + self.overall.byte_size()
    }

    fn runtime_rows(&self, query: &Query) -> usize {
        self.applicable_units(query)
            .iter()
            .map(|&u| self.entries[u].table.num_rows())
            .sum::<usize>()
            + self.overall.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    /// 10 000 rows: one value with 9 000 rows, one with 800, ten with 15,
    /// fifty with 1 — a three-tier size distribution.
    fn tiered_view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for _ in 0..9_000 {
            t.push_row(&["huge".into()]).unwrap();
        }
        for _ in 0..800 {
            t.push_row(&["large".into()]).unwrap();
        }
        for i in 0..10 {
            for _ in 0..15 {
                t.push_row(&[format!("mid{i}").into()]).unwrap();
            }
        }
        for i in 0..50 {
            t.push_row(&[format!("tiny{i}").into()]).unwrap();
        }
        t
    }

    fn build(view: &Table) -> MultiLevelSampler {
        MultiLevelSampler::build(
            view,
            MultiLevelConfig {
                base_rate: 0.02,
                levels: vec![(0.005, 1.0), (0.05, 0.5)],
                tau: 5000,
                seed: 11,
                restrict_columns: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn strata_formed() {
        let v = tiered_view();
        let ml = build(&v);
        assert!(ml.num_strata() >= 2, "level-0 and level-1 strata for g");
        assert_eq!(ml.leveled_columns(), vec!["g"]);
        assert_eq!(ml.view_rows(), 10_000);
        assert_eq!(ml.config().levels.len(), 2);
        let strata = ml.strata();
        assert!(strata.iter().any(|&(c, l, r, n)| c == "g" && l == 0 && r == 1.0 && n > 0));
        assert!(strata.iter().any(|&(_, l, r, _)| l == 1 && (r - 0.5).abs() < 1e-12));
    }

    #[test]
    fn tiny_groups_exact_mid_groups_estimated() {
        let v = tiered_view();
        let ml = build(&v);
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = ml.answer(&q, 0.95).unwrap();

        // Tiny values (50 singleton rows ⇒ 0.5% mass) land in level 0 and
        // are exact.
        let tiny = ans.group(&[Value::Utf8("tiny3".into())]).expect("tiny kept");
        assert!(tiny.values[0].is_exact());
        assert_eq!(tiny.values[0].value(), 1.0);

        // Mid values (15-row groups) land in level 1 at 50%: estimated,
        // not exact, but far better than the 2% base rate.
        let mid = ans.group(&[Value::Utf8("mid0".into())]).expect("mid kept");
        assert!(!mid.values[0].is_exact());
        assert!((mid.values[0].value() - 15.0).abs() < 15.0);

        // The huge group is served by the overall sample.
        let huge = ans.group(&[Value::Utf8("huge".into())]).unwrap();
        assert!(!huge.values[0].is_exact());
        assert!((huge.values[0].value() - 9000.0).abs() < 2500.0);
    }

    #[test]
    fn totals_consistent() {
        let v = tiered_view();
        let ml = build(&v);
        let q = Query::builder().count().group_by("g").build().unwrap();
        let ans = ml.answer(&q, 0.95).unwrap();
        let total: f64 = ans.groups.iter().map(|g| g.values[0].value()).sum();
        assert!((total - 10_000.0).abs() < 2_500.0, "total {total}");
    }

    #[test]
    fn ungrouped_uses_overall() {
        let v = tiered_view();
        let ml = build(&v);
        let q = Query::builder().count().build().unwrap();
        let ans = ml.answer(&q, 0.95).unwrap();
        assert!((ans.groups[0].values[0].value() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn validation() {
        let v = tiered_view();
        for cfg in [
            MultiLevelConfig { base_rate: 0.0, ..Default::default() },
            MultiLevelConfig { levels: vec![], ..Default::default() },
            MultiLevelConfig { levels: vec![(0.6, 1.0), (0.5, 0.5)], ..Default::default() },
            MultiLevelConfig { levels: vec![(0.1, 0.0)], ..Default::default() },
            MultiLevelConfig { tau: 0, ..Default::default() },
        ] {
            assert!(MultiLevelSampler::build(&v, cfg).is_err());
        }
    }

    #[test]
    fn accounting() {
        let v = tiered_view();
        let ml = build(&v);
        let q = Query::builder().count().group_by("g").build().unwrap();
        assert!(ml.runtime_rows(&q) > 0);
        assert!(ml.sample_bytes() > 0);
        assert_eq!(ml.name(), "MultiLevel");
        let ans = ml.answer(&q, 0.95).unwrap();
        assert_eq!(ans.rows_scanned, ml.runtime_rows(&q));
    }
}

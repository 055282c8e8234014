//! Small group sampling (paper Section 4).
//!
//! The concrete dynamic-sample-selection instantiation for group-by
//! aggregation queries. Pre-processing makes two scans of the (joined)
//! database view:
//!
//! 1. count value frequencies per candidate column with a τ distinct-value
//!    cut-off, then compute per surviving column `C` the common-value set
//!    `L(C)` — "the minimum set of values from C whose frequencies sum to at
//!    least N(1−t)";
//! 2. write one *small group table* per surviving column containing 100 %
//!    of the rows with uncommon values (≤ `N·t` rows each), and a uniform
//!    reservoir *overall sample* of `≈N·r` rows; tag every sample row with
//!    a bitmask recording which small group tables contain it.
//!
//! At runtime a query grouping on columns `c₁ < c₂ < … < c_k` (ordered by
//! sample index) is rewritten into the paper's UNION ALL plan: `sg(c₁)`
//! unfiltered, `sg(cⱼ)` with rows already present in earlier tables masked
//! out, and the overall sample with all of `c₁..c_k` masked out and
//! aggregates scaled by the inverse sampling rate. Per-group results are
//! merged; groups whose key contains an uncommon value for some queried
//! sample column are *exact* (every one of their rows lives in a small
//! group table), all others carry a confidence interval whose variance
//! comes from the single sampled stratum.
//!
//! Two of the paper's Section 4.2.3 variations are built in: column-pair
//! small group tables ([`SmallGroupConfig::column_pairs`]) and
//! workload-based column trimming ([`SmallGroupConfig::restrict_columns`]).
//! The third (multi-level hierarchies) lives in [`crate::multilevel`].

use crate::answer::ApproxAnswer;
use crate::catalog::{SampleCatalog, SampleColumnMeta};
use crate::colscan::{classify_rows, column_frequency, per_unit, sample_table, tie_rank, KeyCode};
use crate::error::{AqpError, AqpResult};
use crate::outlier::select_outliers;
use crate::parts::{answer_from_parts, Part};
use crate::system::AqpSystem;
use aqp_query::{DataSource, Query, Weighting};
use aqp_sampling::{ColumnFrequency, Design, ReservoirSampler};
use aqp_storage::{BitSet, BitmaskColumn, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// How the overall sample is constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverallKind {
    /// A plain uniform reservoir sample (the paper's default).
    Uniform,
    /// "Small group sampling enhanced with outlier indexing"
    /// (Section 4.2.1): the overall budget is split between an exact table
    /// of outliers of the named measure column and a uniform sample of the
    /// remaining rows.
    OutlierIndexed {
        /// The measure column whose outliers are stored exactly.
        column: String,
    },
}

/// Configuration for small group sampling pre-processing.
#[derive(Debug, Clone, PartialEq)]
pub struct SmallGroupConfig {
    /// Base sampling rate `r`: the overall sample holds `≈ N·r` rows.
    pub base_rate: f64,
    /// Small group fraction `t`: each small group table holds at most
    /// `N·t` rows. The paper's recommended allocation ratio γ = t/r is 0.5.
    pub small_group_fraction: f64,
    /// Distinct-value cut-off τ (the paper uses 5000): columns with more
    /// distinct values are dropped from `S`.
    pub tau: usize,
    /// RNG seed for the reservoir sample.
    pub seed: u64,
    /// How to build the overall sample.
    pub overall: OverallKind,
    /// Workload-based column trimming (Section 4.2.3): when set, only these
    /// columns are considered for small group tables.
    pub restrict_columns: Option<Vec<String>>,
    /// Columns never considered (keys, free-text, measures).
    pub exclude_columns: Vec<String>,
    /// Column-pair small group tables (Section 4.2.3): each pair gets a
    /// table of rows whose *joint* value combination is uncommon.
    pub column_pairs: Vec<(String, String)>,
    /// Threads for pre-processing: candidate units (columns and pairs) are
    /// split across them in both passes and when their tables are written.
    /// The family is byte-identical at any value. 1 = serial.
    pub preprocess_threads: usize,
    /// Runtime sample-table cap (Section 4.2.3): "for queries with a large
    /// number of grouping columns, using all relevant small group tables
    /// might result in unacceptably large query execution times; in this
    /// case, a heuristic for picking a subset of the relevant small group
    /// tables to query could improve performance". When set, at most this
    /// many small group tables are used per query, preferring the tables
    /// covering the most uncommon rows; the rows of skipped tables are
    /// served (approximately) by the overall sample instead.
    pub max_tables_per_query: Option<usize>,
}

impl Default for SmallGroupConfig {
    fn default() -> Self {
        SmallGroupConfig {
            base_rate: 0.01,
            small_group_fraction: 0.005,
            tau: 5000,
            seed: 42,
            overall: OverallKind::Uniform,
            restrict_columns: None,
            exclude_columns: Vec::new(),
            column_pairs: Vec::new(),
            max_tables_per_query: None,
            preprocess_threads: 1,
        }
    }
}

impl SmallGroupConfig {
    /// Convenience: base rate `r` with allocation ratio γ (so `t = γ·r`).
    pub fn with_rates(base_rate: f64, allocation_ratio: f64) -> Self {
        SmallGroupConfig {
            base_rate,
            small_group_fraction: base_rate * allocation_ratio,
            ..Self::default()
        }
    }

    fn validate(&self) -> AqpResult<()> {
        if !(self.base_rate > 0.0 && self.base_rate <= 1.0) {
            return Err(AqpError::InvalidConfig(format!(
                "base_rate must be in (0,1], got {}",
                self.base_rate
            )));
        }
        if !(0.0..1.0).contains(&self.small_group_fraction) {
            return Err(AqpError::InvalidConfig(format!(
                "small_group_fraction must be in [0,1), got {}",
                self.small_group_fraction
            )));
        }
        if self.tau == 0 {
            return Err(AqpError::InvalidConfig("tau must be positive".into()));
        }
        Ok(())
    }
}

/// What one small group table covers: a single column or a column pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SgUnit {
    Single(String),
    Pair(String, String),
}

impl SgUnit {
    pub(crate) fn name(&self) -> String {
        match self {
            SgUnit::Single(c) => c.clone(),
            SgUnit::Pair(a, b) => format!("{a}+{b}"),
        }
    }

    /// Whether a query grouping on `group_by` can use this table.
    fn applies(&self, group_by: &[String]) -> bool {
        match self {
            SgUnit::Single(c) => group_by.iter().any(|g| g == c),
            SgUnit::Pair(a, b) => {
                group_by.iter().any(|g| g == a) && group_by.iter().any(|g| g == b)
            }
        }
    }
}

/// The common-value set `L(C)` of one unit as key codes (see
/// [`KeyCode`]): pass 1 computes it, pass 2 splits the view's rows with
/// it, and at runtime it tests the group keys' digits, which are codes of
/// the same columns — every table of a family shares its view's (or, once
/// loaded, its file's) dictionary per column.
#[derive(Debug, Clone)]
pub(crate) enum CommonCodes {
    Single(HashSet<KeyCode>),
    Pair(HashSet<(KeyCode, KeyCode)>),
}

/// One member of `S`: its unit, its small group table, and its `L(C)`.
#[derive(Debug, Clone)]
pub(crate) struct SgEntry {
    pub(crate) unit: SgUnit,
    pub(crate) table: Table,
    pub(crate) common: CommonCodes,
}

impl SgEntry {
    /// Resolve, once per query, where this unit's column(s) sit in the
    /// group key. The unit must apply to `group_by`.
    fn uncommon_probe(&self, group_by: &[String]) -> UncommonProbe<'_> {
        let pos = |c: &String| group_by.iter().position(|g| g == c).expect("applies() checked");
        match (&self.unit, &self.common) {
            (SgUnit::Single(c), CommonCodes::Single(common)) => {
                UncommonProbe::Single(common, pos(c))
            }
            (SgUnit::Pair(a, b), CommonCodes::Pair(common)) => {
                UncommonProbe::Pair(common, pos(a), pos(b))
            }
            _ => unreachable!("unit/common variants always match"),
        }
    }
}

/// One applicable unit's common-value set with the key position(s) it
/// tests.
enum UncommonProbe<'a> {
    Single(&'a HashSet<KeyCode>, usize),
    Pair(&'a HashSet<(KeyCode, KeyCode)>, usize, usize),
}

impl UncommonProbe<'_> {
    /// Whether the group whose key is `digits` has an uncommon value for
    /// this unit — i.e. every row of the group is in the unit's small
    /// group table, so the group is answered exactly.
    fn key_is_uncommon(&self, digits: &[KeyCode]) -> bool {
        match self {
            UncommonProbe::Single(common, pos) => !common.contains(&digits[*pos]),
            UncommonProbe::Pair(common, pa, pb) => !common.contains(&(digits[*pa], digits[*pb])),
        }
    }
}

/// One stratum of the overall sample.
#[derive(Debug, Clone)]
pub(crate) struct OverallPart {
    pub(crate) table: Table,
    /// Inverse sampling rate of the stratum (1.0 for exact strata).
    pub(crate) weight: f64,
}

/// A built small-group sample family — the paper's primary contribution.
#[derive(Debug, Clone)]
pub struct SmallGroupSampler {
    pub(crate) config: SmallGroupConfig,
    pub(crate) view_rows: usize,
    pub(crate) entries: Vec<SgEntry>,
    pub(crate) overall: Vec<OverallPart>,
    pub(crate) overall_rate: f64,
    pub(crate) catalog: SampleCatalog,
    /// Indices of entries whose small group table is unavailable (salvaged
    /// from a partially corrupt file). Disabled entries keep their slot so
    /// bitmask bit indices stay valid, but runtime plans never scan them —
    /// their rows are served by the overall sample instead, exactly like
    /// tables skipped by [`SmallGroupConfig::max_tables_per_query`].
    pub(crate) disabled: HashSet<usize>,
    /// Worker threads for runtime sample scans (1 = inline). Answers are
    /// bit-identical at any value; this only changes wall-clock time.
    pub(crate) runtime_threads: usize,
}

impl SmallGroupSampler {
    /// Run the two-pass pre-processing over the (joined) database view.
    pub fn build(view: &Table, config: SmallGroupConfig) -> AqpResult<Self> {
        config.validate()?;
        let n = view.num_rows();
        let src = DataSource::Wide(view);
        let t = config.small_group_fraction;

        // --- Candidate units ---------------------------------------------
        let mut units: Vec<SgUnit> = Vec::new();
        for f in view.schema().fields() {
            let name = &f.name;
            if config.exclude_columns.iter().any(|c| c == name) {
                continue;
            }
            if let Some(allowed) = &config.restrict_columns {
                if !allowed.iter().any(|c| c == name) {
                    continue;
                }
            }
            units.push(SgUnit::Single(name.clone()));
        }
        for (a, b) in &config.column_pairs {
            // Both columns must exist; resolve errors surface here.
            src.resolve(a)?;
            src.resolve(b)?;
            units.push(SgUnit::Pair(a.clone(), b.clone()));
        }

        // --- Pass 1: frequency counting with the τ cut-off ----------------
        enum Freq {
            Single(ColumnFrequency<KeyCode>),
            Pair(ColumnFrequency<(KeyCode, KeyCode)>),
        }
        // Resolve accessors once.
        let accessors: Vec<_> = units
            .iter()
            .map(|u| match u {
                SgUnit::Single(c) => Ok(vec![src.resolve(c)?]),
                SgUnit::Pair(a, b) => Ok(vec![src.resolve(a)?, src.resolve(b)?]),
            })
            .collect::<AqpResult<Vec<_>>>()?;

        // One unit at a time: a unit's counter sees its whole column, so
        // the τ cut-off ends that unit's scan, and units share nothing, so
        // there is no merge and every thread count yields the same
        // histograms — and with them the same L(C) sets, tables and
        // reservoir.
        let threads = config.preprocess_threads.max(1);
        let freq_span = aqp_obs::span("sgs.frequency");
        let freqs = per_unit(units.len(), threads, |u| match &accessors[u][..] {
            [col] => Freq::Single(column_frequency(col.column, config.tau)),
            [a, b] => {
                let mut f = ColumnFrequency::new(config.tau);
                for row in 0..n {
                    f.observe(&(a.key_code(row), b.key_code(row)));
                    if f.abandoned() {
                        break;
                    }
                }
                Freq::Pair(f)
            }
            _ => unreachable!("a unit has one column or two"),
        });
        drop(freq_span);

        // --- L(C) per unit; build the surviving set S ---------------------
        let mut survivors: Vec<(SgUnit, CommonCodes, usize)> = Vec::new();
        let mut dropped_tau = Vec::new();
        let mut dropped_nsg = Vec::new();
        for ((unit, freq), acc) in units.into_iter().zip(freqs).zip(&accessors) {
            match freq {
                Freq::Single(f) => {
                    if f.abandoned() {
                        dropped_tau.push(unit.name());
                        continue;
                    }
                    match f.common_values_by(t, tie_rank(acc[0].column)) {
                        Some(cv) => {
                            let set = cv.iter_common().copied().collect();
                            survivors.push((unit, CommonCodes::Single(set), cv.num_common()));
                        }
                        None => dropped_nsg.push(unit.name()),
                    }
                }
                Freq::Pair(f) => {
                    if f.abandoned() {
                        dropped_tau.push(unit.name());
                        continue;
                    }
                    let (rank_a, rank_b) = (tie_rank(acc[0].column), tie_rank(acc[1].column));
                    match f.common_values_by(t, |(a, b)| (rank_a(a), rank_b(b))) {
                        Some(cv) => {
                            let set = cv.iter_common().copied().collect();
                            survivors.push((unit, CommonCodes::Pair(set), cv.num_common()));
                        }
                        None => dropped_nsg.push(unit.name()),
                    }
                }
            }
        }
        let num_units = survivors.len();

        // Re-resolve accessors for the survivors (indices shifted).
        let survivor_accessors: Vec<_> = survivors
            .iter()
            .map(|(u, _, _)| match u {
                SgUnit::Single(c) => Ok(vec![src.resolve(c)?]),
                SgUnit::Pair(a, b) => Ok(vec![src.resolve(a)?, src.resolve(b)?]),
            })
            .collect::<AqpResult<Vec<_>>>()?;

        // --- Pass 2: small group tables + overall sample ------------------
        let overall_target = ((n as f64 * config.base_rate).round() as usize).min(n);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Per unit, the ascending list of view rows with an uncommon value
        // — the rows of its small group table.
        let membership_span = aqp_obs::span("sgs.membership");
        let unit_rows: Vec<Vec<usize>> = per_unit(num_units, threads, |u| {
            let acc = &survivor_accessors[u];
            match &survivors[u].1 {
                CommonCodes::Single(common) => {
                    classify_rows(acc[0].column, |key| (!common.contains(&key)).then_some(()))
                        .into_iter()
                        .map(|(row, ())| row)
                        .collect()
                }
                CommonCodes::Pair(common) => (0..n)
                    .filter(|&row| !common.contains(&(acc[0].key_code(row), acc[1].key_code(row))))
                    .collect(),
            }
        });
        // The bitmask of every view row: bit `u` set iff unit `u`'s table
        // holds the row. Sample tables copy their rows' masks from here.
        let width = num_units.max(1).div_ceil(64);
        let mut mask_words = vec![0u64; n * width];
        for (u, rows) in unit_rows.iter().enumerate() {
            for &row in rows {
                mask_words[row * width + u / 64] |= 1u64 << (u % 64);
            }
        }
        let masks = BitmaskColumn::from_words(width, mask_words);
        drop(membership_span);
        let write_span = aqp_obs::span("sgs.write");

        // Outlier-enhanced overall: pick outliers first so the reservoir
        // only sees the remaining rows.
        let (outlier_rows, reservoir_candidates): (Vec<usize>, Option<Vec<usize>>) =
            match &config.overall {
                OverallKind::Uniform => (Vec::new(), None),
                OverallKind::OutlierIndexed { column } => {
                    let col = src.resolve(column)?;
                    if !col.data_type().is_numeric() {
                        return Err(AqpError::InvalidConfig(format!(
                            "outlier column {column:?} is not numeric"
                        )));
                    }
                    // Split the overall budget: half outliers, half sample.
                    // Only non-null measure rows are outlier candidates —
                    // coercing NULL to 0.0 would let NULL rows masquerade
                    // as a low-value tail and eat the exact-storage budget
                    // while contributing nothing to SUM(column).
                    let k_out = (overall_target / 2).min(n);
                    let candidates: Vec<usize> =
                        (0..n).filter(|&r| col.numeric(r).is_some()).collect();
                    let values: Vec<f64> = candidates
                        .iter()
                        .map(|&r| col.numeric(r).expect("filtered non-null"))
                        .collect();
                    let outliers: Vec<usize> = select_outliers(&values, k_out.min(candidates.len()))
                        .into_iter()
                        .map(|i| candidates[i])
                        .collect();
                    let outlier_set: HashSet<usize> = outliers.iter().copied().collect();
                    let rest: Vec<usize> =
                        (0..n).filter(|r| !outlier_set.contains(r)).collect();
                    (outliers, Some(rest))
                }
            };

        let sg_tables = per_unit(num_units, threads, |u| {
            sample_table(view, &masks, format!("sg_{}", survivors[u].0.name()), &unit_rows[u])
        });

        let reservoir_capacity = overall_target - outlier_rows.len();
        let mut reservoir = ReservoirSampler::<usize>::new(reservoir_capacity);
        match &reservoir_candidates {
            None => (0..n).for_each(|row| reservoir.observe(row, &mut rng)),
            Some(rest) => rest.iter().for_each(|&row| reservoir.observe(row, &mut rng)),
        }

        // Materialise the overall part(s).
        let population = match &reservoir_candidates {
            None => n,
            Some(rest) => rest.len(),
        };
        let sampled = reservoir.items().len();
        let overall_rate = if population == 0 {
            1.0
        } else {
            (sampled as f64 / population as f64).min(1.0)
        };
        let mut overall = Vec::new();
        if !outlier_rows.is_empty() {
            let table = sample_table(view, &masks, "overall_outliers", &outlier_rows);
            overall.push(OverallPart { table, weight: 1.0 });
        }
        {
            let mut indices = reservoir.into_items();
            indices.sort_unstable();
            let table = sample_table(view, &masks, "overall", &indices);
            let weight = if overall_rate > 0.0 { 1.0 / overall_rate } else { 1.0 };
            overall.push(OverallPart { table, weight });
        }
        drop(write_span);
        aqp_obs::counter("aqp_sgs_builds_total", &[]).inc();
        aqp_obs::counter("aqp_sgs_build_rows_total", &[]).inc_by(n as u64);

        // --- Entries and catalog -------------------------------------------
        let mut entries = Vec::with_capacity(num_units);
        let mut column_meta = Vec::with_capacity(num_units);
        for (idx, ((unit, common, num_common), table)) in
            survivors.into_iter().zip(sg_tables).enumerate()
        {
            column_meta.push(SampleColumnMeta {
                name: unit.name(),
                index: idx,
                num_common,
                rows: table.num_rows(),
            });
            entries.push(SgEntry { unit, table, common });
        }

        let total_bytes = entries.iter().map(|e| e.table.byte_size()).sum::<usize>()
            + overall.iter().map(|p| p.table.byte_size()).sum::<usize>();
        let catalog = SampleCatalog {
            view_rows: n,
            columns: column_meta,
            dropped_tau,
            dropped_no_small_groups: dropped_nsg,
            overall_rows: overall.iter().map(|p| p.table.num_rows()).sum(),
            overall_rate,
            total_bytes,
        };

        Ok(SmallGroupSampler {
            config,
            view_rows: n,
            entries,
            overall,
            overall_rate,
            catalog,
            disabled: HashSet::new(),
            runtime_threads: 1,
        })
    }

    /// Set the worker-thread count used by runtime query scans. The thread
    /// count never changes an answer — only how fast it arrives.
    pub fn set_threads(&mut self, threads: usize) {
        self.runtime_threads = threads.max(1);
    }

    /// Builder-style [`Self::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }

    /// Worker threads used by runtime query scans.
    pub fn threads(&self) -> usize {
        self.runtime_threads
    }

    /// The sample-family metadata.
    pub fn catalog(&self) -> &SampleCatalog {
        &self.catalog
    }

    /// The configuration the family was built with.
    pub fn config(&self) -> &SmallGroupConfig {
        &self.config
    }

    /// Realised sampling rate of the overall sample.
    pub fn overall_rate(&self) -> f64 {
        self.overall_rate
    }

    /// Rows in the source view.
    pub fn view_rows(&self) -> usize {
        self.view_rows
    }

    /// Every table of the family, in file order: the small group tables by
    /// index, then the overall part(s).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        (self.entries.iter().map(|e| &e.table)).chain(self.overall.iter().map(|p| &p.table))
    }

    /// Names of the columns (and pairs) in `S`, ordered by index.
    pub fn sample_columns(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.unit.name()).collect()
    }

    /// Explain the rewritten plan for a query: which sample tables the
    /// dynamic selection picks, in what order, with which bitmask
    /// exclusions and scale factors — the paper's Section 4.2.2 UNION ALL
    /// plan, rendered. Useful for understanding and debugging sample
    /// selection; the CLI repl exposes it as `\explain`.
    pub fn explain(&self, query: &Query) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let applicable = self.applicable_units(query);
        let _ = writeln!(out, "plan for: {query}");
        if applicable.is_empty() {
            let _ = writeln!(
                out,
                "  (no grouping column has a small group table; overall sample only)"
            );
        }
        for (j, &u) in applicable.iter().enumerate() {
            let entry = &self.entries[u];
            let excluded: Vec<String> = applicable[..j]
                .iter()
                .map(|&p| self.entries[p].unit.name())
                .collect();
            let filter = if excluded.is_empty() {
                "no filter".to_owned()
            } else {
                format!("exclude rows already in {{{}}}", excluded.join(", "))
            };
            let _ = writeln!(
                out,
                "  UNION ALL scan sg_{} ({} rows, index {}): {}, weight 1 (exact stratum)",
                entry.unit.name(),
                entry.table.num_rows(),
                u,
                filter,
            );
        }
        let all: Vec<String> = applicable
            .iter()
            .map(|&p| self.entries[p].unit.name())
            .collect();
        for part in &self.overall {
            let filter = if all.is_empty() {
                "no filter".to_owned()
            } else {
                format!("exclude rows in {{{}}}", all.join(", "))
            };
            let _ = writeln!(
                out,
                "  UNION ALL scan {} ({} rows): {}, weight {:.1}",
                part.table.name(),
                part.table.num_rows(),
                filter,
                part.weight,
            );
        }
        let total = self.runtime_rows(query);
        let _ = write!(
            out,
            "  total sample rows: {} of {} ({:.2}%)",
            total,
            self.view_rows,
            100.0 * total as f64 / self.view_rows.max(1) as f64
        );
        out
    }

    /// Indices (into `S`) of the sample tables a query would use, after
    /// applying the optional runtime cap (largest-coverage-first: bigger
    /// small group tables hold more of the uncommon row mass, so skipping
    /// them loses the most exactness per table).
    fn applicable_units(&self, query: &Query) -> Vec<usize> {
        let mut units: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(i, e)| !self.disabled.contains(i) && e.unit.applies(&query.group_by))
            .map(|(i, _)| i)
            .collect();
        if let Some(cap) = self.config.max_tables_per_query {
            if units.len() > cap {
                units.sort_by_key(|&u| std::cmp::Reverse(self.entries[u].table.num_rows()));
                units.truncate(cap);
                // Bitmask exclusion chains assume ascending index order.
                units.sort_unstable();
            }
        }
        units
    }

    /// Names of the tables the dynamic selection would consult for
    /// `query`, in plan order: applicable small group tables first, then
    /// the overall part(s). This is the table list an
    /// [`aqp_obs::RequestRecord`] reports as `sample_tables`.
    pub fn plan_tables(&self, query: &Query) -> Vec<String> {
        let mut names: Vec<String> = self
            .applicable_units(query)
            .iter()
            .map(|&u| format!("sg_{}", self.entries[u].unit.name()))
            .collect();
        names.extend(self.overall_table_names());
        names
    }

    /// Names of the overall sample part(s) — what the `overall` serving
    /// tier scans.
    pub fn overall_table_names(&self) -> Vec<String> {
        self.overall
            .iter()
            .map(|p| p.table.name().to_string())
            .collect()
    }

    /// Names of sample units whose tables are unavailable (salvaged loads).
    pub fn disabled_units(&self) -> Vec<String> {
        let mut names: Vec<(usize, String)> = self
            .disabled
            .iter()
            .filter_map(|&i| self.entries.get(i).map(|e| (i, e.unit.name())))
            .collect();
        names.sort_by_key(|(i, _)| *i);
        names.into_iter().map(|(_, n)| n).collect()
    }

    /// Whether a query's preferred plan would have used a sample table that
    /// is currently disabled — i.e. serving it from this sampler degrades
    /// it to the overall sample for those rows.
    pub fn query_touches_disabled(&self, query: &Query) -> bool {
        self.disabled
            .iter()
            .any(|&i| self.entries[i].unit.applies(&query.group_by))
    }

    /// Answer using only the uniform overall sample, ignoring every small
    /// group table — the middle rung of the degradation ladder. No group is
    /// exact (unless the overall sample holds 100 % of the rows).
    pub fn answer_overall_only(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let parts: Vec<Part<'_>> = (self.overall.iter())
            .map(|p| Part::new(&p.table, None, Weighting::Constant(p.weight), "overall"))
            .collect();
        let design = if self.overall_rate >= 1.0 { Design::Exact } else { Design::Scaled };
        answer_from_parts(query, &parts, confidence, self.runtime_threads, &|_| design)
    }
}

impl AqpSystem for SmallGroupSampler {
    fn name(&self) -> &str {
        match self.config.overall {
            OverallKind::Uniform => "SmGroup",
            OverallKind::OutlierIndexed { .. } => "SmGroup+Outlier",
        }
    }

    fn answer(&self, query: &Query, confidence: f64) -> AqpResult<ApproxAnswer> {
        if !query.estimable() {
            return Err(AqpError::Unsupported(
                "MIN/MAX aggregates cannot be estimated from samples".into(),
            ));
        }
        let rewrite_span = aqp_obs::span("query.rewrite");
        let applicable = self.applicable_units(query);
        let width = self.entries.len().max(1);

        // Assemble the UNION ALL plan: each small group table masked by the
        // earlier ones, the overall part(s) by all of them.
        let mut parts: Vec<Part<'_>> = Vec::new();
        for (j, &u) in applicable.iter().enumerate() {
            let mask = BitSet::from_bits(width, applicable[..j].iter().copied());
            let table = &self.entries[u].table;
            parts.push(Part::new(table, Some(mask), Weighting::Constant(1.0), "small-group"));
        }
        let all_mask = BitSet::from_bits(width, applicable.iter().copied());
        for p in &self.overall {
            let weighting = Weighting::Constant(p.weight);
            parts.push(Part::new(&p.table, Some(all_mask.clone()), weighting, "overall"));
        }
        drop(rewrite_span);

        // Execute and merge; exactness comes from the common-value test
        // (Equation 2's indicator): a group is exact iff its key carries an
        // uncommon value for some queried sample column, because then every
        // one of its rows lives in that small group table.
        let probes: Vec<UncommonProbe<'_>> = applicable
            .iter()
            .map(|&u| self.entries[u].uncommon_probe(&query.group_by))
            .collect();
        let is_exact = |digits: &[KeyCode]| probes.iter().any(|p| p.key_is_uncommon(digits));
        let design =
            |digits: &[KeyCode]| if is_exact(digits) { Design::Exact } else { Design::Scaled };
        answer_from_parts(query, &parts, confidence, self.runtime_threads, &design)
    }

    fn sample_bytes(&self) -> usize {
        self.catalog.total_bytes
    }

    fn runtime_rows(&self, query: &Query) -> usize {
        let sg: usize = self
            .applicable_units(query)
            .iter()
            .map(|&u| self.entries[u].table.num_rows())
            .sum();
        let overall: usize = self.overall.iter().map(|p| p.table.num_rows()).sum();
        sg + overall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_query::Expr;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    /// The paper's Example 3.1 database: 90 Stereo rows, 10 TV rows.
    fn example_3_1() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.product", DataType::Utf8)
            .field("t.price", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..90 {
            t.push_row(&["Stereo".into(), (10.0 + i as f64).into()]).unwrap();
        }
        for i in 0..10 {
            t.push_row(&["TV".into(), (500.0 + i as f64).into()]).unwrap();
        }
        t
    }

    fn build_example(rate: f64, t: f64) -> SmallGroupSampler {
        SmallGroupSampler::build(
            &example_3_1(),
            SmallGroupConfig {
                base_rate: rate,
                small_group_fraction: t,
                tau: 5000,
                seed: 1,
                ..SmallGroupConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn example_3_1_small_groups_are_exact() {
        let sgs = build_example(0.1, 0.2);
        // product is in S; price is continuous with 100 distinct values out
        // of 100 rows — every value occurs once, so L(price) needs 80 of
        // them and price keeps a small group table too (fine).
        assert!(sgs.sample_columns().iter().any(|c| c == "t.product"));

        let q = Query::builder().count().group_by("t.product").build().unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let tv = ans.group(&[Value::Utf8("TV".into())]).expect("TV group present");
        assert!(tv.values[0].is_exact(), "small group answered exactly");
        assert_eq!(tv.values[0].value(), 10.0);
        let stereo = ans.group(&[Value::Utf8("Stereo".into())]).unwrap();
        assert!(!stereo.values[0].is_exact());
        assert!(stereo.values[0].ci.contains(90.0) || (stereo.values[0].value() - 90.0).abs() < 45.0);
    }

    #[test]
    fn no_double_counting_exhaustive() {
        // With base_rate 1.0 the overall sample holds every row; bitmask
        // filters must still make the strata partition the data exactly.
        let sgs = build_example(1.0, 0.2);
        let q = Query::builder().count().group_by("t.product").build().unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let total: f64 = ans.groups.iter().map(|g| g.values[0].value()).sum();
        assert!((total - 100.0).abs() < 1e-9, "total {total}");
        let tv = ans.group(&[Value::Utf8("TV".into())]).unwrap();
        assert_eq!(tv.values[0].value(), 10.0);
        let stereo = ans.group(&[Value::Utf8("Stereo".into())]).unwrap();
        assert_eq!(stereo.values[0].value(), 90.0);
    }

    #[test]
    fn ungrouped_query_uses_overall_only() {
        let sgs = build_example(1.0, 0.2);
        let q = Query::builder().count().build().unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        assert_eq!(ans.num_groups(), 1);
        assert!((ans.groups[0].values[0].value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn predicates_apply_to_sample_tables() {
        let sgs = build_example(1.0, 0.2);
        let q = Query::builder()
            .count()
            .group_by("t.product")
            .filter(Expr::cmp("t.price", aqp_query::CmpOp::Ge, 505.0f64))
            .build()
            .unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let tv = ans.group(&[Value::Utf8("TV".into())]).unwrap();
        assert_eq!(tv.values[0].value(), 5.0);
        assert!(ans.group(&[Value::Utf8("Stereo".into())]).is_none());
    }

    #[test]
    fn sum_and_avg_estimates() {
        let sgs = build_example(1.0, 0.2);
        let q = Query::builder()
            .sum("t.price")
            .aggregate(aqp_query::AggExpr::avg("t.price", "avg_price"))
            .group_by("t.product")
            .build()
            .unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let tv = ans.group(&[Value::Utf8("TV".into())]).unwrap();
        let expected_sum: f64 = (0..10).map(|i| 500.0 + i as f64).sum();
        assert!((tv.values[0].value() - expected_sum).abs() < 1e-9);
        assert!((tv.values[1].value() - expected_sum / 10.0).abs() < 1e-9);
        assert!(tv.values[1].is_exact());
    }

    #[test]
    fn min_max_rejected() {
        let sgs = build_example(0.1, 0.2);
        let q = Query::builder()
            .aggregate(aqp_query::AggExpr::min("t.price", "m"))
            .build()
            .unwrap();
        assert!(matches!(sgs.answer(&q, 0.95), Err(AqpError::Unsupported(_))));
    }

    #[test]
    fn catalog_contents() {
        let sgs = build_example(0.1, 0.2);
        let cat = sgs.catalog();
        assert_eq!(cat.view_rows, 100);
        assert_eq!(sgs.view_rows(), 100);
        assert!(cat.num_tables() >= 1);
        assert!(cat.overall_rows >= 9 && cat.overall_rows <= 11);
        assert!(cat.total_bytes > 0);
        assert_eq!(cat.index_of("t.product"), Some(cat.columns.iter().find(|c| c.name == "t.product").unwrap().index));
        // Small group table sizes obey the N·t bound.
        for c in &cat.columns {
            assert!(c.rows as f64 <= 100.0 * 0.2 + 1e-9, "{}: {} rows", c.name, c.rows);
        }
    }

    #[test]
    fn runtime_rows_accounting() {
        let sgs = build_example(0.1, 0.2);
        let q = Query::builder().count().group_by("t.product").build().unwrap();
        let expected: usize = sgs.catalog().overall_rows
            + sgs
                .catalog()
                .columns
                .iter()
                .find(|c| c.name == "t.product")
                .unwrap()
                .rows;
        assert_eq!(sgs.runtime_rows(&q), expected);
        let ans = sgs.answer(&q, 0.95).unwrap();
        assert_eq!(ans.rows_scanned, expected);
    }

    #[test]
    fn invalid_configs_rejected() {
        let view = example_3_1();
        for cfg in [
            SmallGroupConfig { base_rate: 0.0, ..Default::default() },
            SmallGroupConfig { base_rate: 1.5, ..Default::default() },
            SmallGroupConfig { small_group_fraction: 1.0, ..Default::default() },
            SmallGroupConfig { tau: 0, ..Default::default() },
        ] {
            assert!(matches!(
                SmallGroupSampler::build(&view, cfg),
                Err(AqpError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn restrict_and_exclude_columns() {
        let view = example_3_1();
        let sgs = SmallGroupSampler::build(
            &view,
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.2,
                restrict_columns: Some(vec!["t.product".into()]),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sgs.sample_columns(), vec!["t.product".to_owned()]);

        let sgs = SmallGroupSampler::build(
            &view,
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.2,
                exclude_columns: vec!["t.product".into()],
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!sgs.sample_columns().contains(&"t.product".to_owned()));
    }

    #[test]
    fn tau_drops_high_cardinality_columns() {
        let view = example_3_1();
        let sgs = SmallGroupSampler::build(
            &view,
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.2,
                tau: 50, // price has 100 distinct values
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sgs.catalog().dropped_tau.contains(&"t.price".to_owned()));
        assert!(!sgs.sample_columns().contains(&"t.price".to_owned()));
    }

    #[test]
    fn column_pairs_variation() {
        // Two columns that are individually balanced but jointly skewed.
        let schema = SchemaBuilder::new()
            .field("a", DataType::Utf8)
            .field("b", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        // (x,p) 48, (y,q) 48, (x,q) 2, (y,p) 2 — marginals are 50/50.
        for _ in 0..48 {
            t.push_row(&["x".into(), "p".into()]).unwrap();
            t.push_row(&["y".into(), "q".into()]).unwrap();
        }
        for _ in 0..2 {
            t.push_row(&["x".into(), "q".into()]).unwrap();
            t.push_row(&["y".into(), "p".into()]).unwrap();
        }
        let sgs = SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                base_rate: 0.25,
                small_group_fraction: 0.1,
                column_pairs: vec![("a".into(), "b".into())],
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        // Neither single column has small groups, but the pair does.
        assert!(sgs.sample_columns().contains(&"a+b".to_owned()));

        let q = Query::builder()
            .count()
            .group_by("a")
            .group_by("b")
            .build()
            .unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let rare = ans
            .group(&[Value::Utf8("x".into()), Value::Utf8("q".into())])
            .expect("rare joint group preserved");
        assert!(rare.values[0].is_exact());
        assert_eq!(rare.values[0].value(), 2.0);
    }

    #[test]
    fn outlier_enhanced_overall() {
        // 99 small values and one huge outlier in the measure.
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..99 {
            t.push_row(&[if i % 2 == 0 { "a" } else { "b" }.into(), 1.0f64.into()])
                .unwrap();
        }
        t.push_row(&["a".into(), 10_000.0f64.into()]).unwrap();

        let sgs = SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                base_rate: 0.2,
                small_group_fraction: 0.05,
                overall: OverallKind::OutlierIndexed { column: "x".into() },
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sgs.name(), "SmGroup+Outlier");
        // The outlier row is stored exactly, so SUM(x) grouped by g cannot
        // miss the 10 000 spike.
        let q = Query::builder().sum("x").group_by("g").build().unwrap();
        let ans = sgs.answer(&q, 0.95).unwrap();
        let a = ans.group(&[Value::Utf8("a".into())]).unwrap();
        assert!(
            a.values[0].value() >= 10_000.0,
            "outlier captured: {}",
            a.values[0].value()
        );
        // Non-numeric outlier column rejected.
        let bad = SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                overall: OverallKind::OutlierIndexed { column: "g".into() },
                ..Default::default()
            },
        );
        assert!(matches!(bad, Err(AqpError::InvalidConfig(_))));
    }

    #[test]
    fn explain_renders_the_plan() {
        let sgs = build_example(0.1, 0.2);
        let q = Query::builder().count().group_by("t.product").build().unwrap();
        let plan = sgs.explain(&q);
        assert!(plan.contains("sg_t.product"), "{plan}");
        assert!(plan.contains("weight 1 (exact stratum)"), "{plan}");
        assert!(plan.contains("weight 10.0"), "{plan}");
        assert!(plan.contains("total sample rows"), "{plan}");
        // Ungrouped query: overall only.
        let q = Query::builder().count().build().unwrap();
        let plan = sgs.explain(&q);
        assert!(plan.contains("overall sample only"), "{plan}");
    }

    #[test]
    fn runtime_table_cap_heuristic() {
        // Three group columns, each with small groups; cap at 1 table.
        let schema = SchemaBuilder::new()
            .field("a", DataType::Utf8)
            .field("b", DataType::Utf8)
            .field("c", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        for i in 0..400 {
            let a = if i % 40 == 0 { "ra" } else { "ca" };
            let b = if i % 20 == 0 { "rb" } else { "cb" };
            let c = if i % 10 == 0 { "rc" } else { "cc" };
            t.push_row(&[a.into(), b.into(), c.into()]).unwrap();
        }
        let capped = SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                base_rate: 1.0,
                small_group_fraction: 0.15,
                max_tables_per_query: Some(1),
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let uncapped = SmallGroupSampler::build(
            &t,
            SmallGroupConfig {
                base_rate: 1.0,
                small_group_fraction: 0.15,
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let q = Query::builder()
            .count()
            .group_by("a")
            .group_by("b")
            .group_by("c")
            .build()
            .unwrap();
        assert!(capped.runtime_rows(&q) < uncapped.runtime_rows(&q));
        // The kept table is the biggest one: column c has the most
        // uncommon rows (every 10th).
        let kept = capped.applicable_units(&q);
        assert_eq!(kept.len(), 1);
        assert_eq!(capped.entries[kept[0]].unit.name(), "c");
        // Correctness is preserved at full base rate: the capped plan
        // still reproduces the exact answer (skipped tables' rows come
        // from the 100% overall sample).
        let exact_total = 400.0;
        let ans = capped.answer(&q, 0.95).unwrap();
        let total: f64 = ans.groups.iter().map(|g| g.values[0].value()).sum();
        assert!((total - exact_total).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn with_rates_helper() {
        let cfg = SmallGroupConfig::with_rates(0.02, 0.5);
        assert_eq!(cfg.base_rate, 0.02);
        assert_eq!(cfg.small_group_fraction, 0.01);
    }

    #[test]
    fn parallel_preprocessing_matches_serial() {
        let view = example_3_1();
        let serial = SmallGroupSampler::build(
            &view,
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.2,
                seed: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = SmallGroupSampler::build(
            &view,
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.2,
                seed: 4,
                preprocess_threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        // The frequency pass is deterministic regardless of threading, so
        // the whole family must be identical.
        assert_eq!(serial.catalog(), parallel.catalog());
        assert_eq!(serial.sample_columns(), parallel.sample_columns());
        let q = Query::builder().count().group_by("t.product").build().unwrap();
        let a = serial.answer(&q, 0.95).unwrap();
        let b = parallel.answer(&q, 0.95).unwrap();
        assert_eq!(a.num_groups(), b.num_groups());
        for g in &a.groups {
            let other = b.group(&g.key).unwrap();
            assert_eq!(g.values[0].value(), other.values[0].value());
        }
    }
}

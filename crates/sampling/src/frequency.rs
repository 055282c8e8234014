//! Value-frequency counting and the L(C) common-value computation.
//!
//! First preprocessing pass of small group sampling (paper Section 4.2.1):
//! count the occurrences of each distinct value in each column using one
//! hashtable per column; abandon a column once its distinct count exceeds a
//! threshold τ (the paper uses τ = 5000); afterwards compute, per surviving
//! column `C`, the set `L(C)` — "the minimum set of values from C whose
//! frequencies sum to at least N(1−t)". Rows whose value falls outside
//! `L(C)` belong to `C`'s small group table, and there are at most `N·t` of
//! them by construction.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Per-column frequency counter with a distinct-value cut-off.
#[derive(Debug, Clone)]
pub struct ColumnFrequency<T: Eq + Hash> {
    counts: Option<HashMap<T, u64>>,
    total: u64,
    distinct_cap: usize,
}

impl<T: Eq + Hash + Clone> ColumnFrequency<T> {
    /// Create a counter that gives up once more than `distinct_cap` distinct
    /// values have been observed.
    pub fn new(distinct_cap: usize) -> Self {
        ColumnFrequency {
            counts: Some(HashMap::new()),
            total: 0,
            distinct_cap,
        }
    }

    /// A counter holding exactly the given `(value, frequency)` pairs, for
    /// callers that count by other means (a dense array indexed by
    /// dictionary code). Equal to observing each value `frequency` times:
    /// more than `distinct_cap` distinct values abandon the counter.
    pub fn from_counts(counts: impl IntoIterator<Item = (T, u64)>, distinct_cap: usize) -> Self {
        let mut map = HashMap::new();
        let mut total = 0;
        for (value, count) in counts {
            total += count;
            *map.entry(value).or_insert(0) += count;
        }
        ColumnFrequency {
            counts: (map.len() <= distinct_cap).then_some(map),
            total,
            distinct_cap,
        }
    }

    /// The `(value, frequency)` pairs in no particular order, unless
    /// abandoned.
    pub fn counts(&self) -> Option<impl Iterator<Item = (&T, u64)>> {
        self.counts.as_ref().map(|m| m.iter().map(|(v, c)| (v, *c)))
    }

    /// Observe one value.
    pub fn observe(&mut self, value: &T) {
        self.total += 1;
        if let Some(map) = self.counts.as_mut() {
            if let Some(c) = map.get_mut(value) {
                *c += 1;
            } else if map.len() >= self.distinct_cap {
                // τ exceeded: stop maintaining counts for this column
                // ("we remove that column from S and cease to maintain its
                // counts").
                self.counts = None;
            } else {
                map.insert(value.clone(), 1);
            }
        }
    }

    /// Whether the column blew past the τ cut-off.
    pub fn abandoned(&self) -> bool {
        self.counts.is_none()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values, unless abandoned.
    pub fn distinct(&self) -> Option<usize> {
        self.counts.as_ref().map(HashMap::len)
    }

    /// Frequency of `value` (0 if unseen), unless abandoned.
    pub fn count(&self, value: &T) -> Option<u64> {
        self.counts
            .as_ref()
            .map(|m| m.get(value).copied().unwrap_or(0))
    }

    /// Compute `L(C)` for small-group fraction `t`, breaking count ties by
    /// value ([`Self::common_values_by`] with the value itself).
    pub fn common_values(&self, t: f64) -> Option<CommonValues<T>>
    where
        T: Ord,
    {
        self.common_values_by(t, T::clone)
    }

    /// Compute `L(C)` for small-group fraction `t`.
    ///
    /// Values are taken by descending frequency; ties go to the value with
    /// the smaller `rank`, so the result is deterministic regardless of
    /// hash order. A tie at the `N(1−t)` threshold decides which value
    /// becomes a small group, so `rank` must not depend on an arbitrary
    /// numbering — a dictionary code, say — when the value it stands for
    /// has a natural order.
    ///
    /// Returns `None` when the column was abandoned (τ exceeded) **or** when
    /// the column has no small groups (every value must be declared common to
    /// reach the `N(1−t)` threshold minus nothing left over) — in both cases
    /// the paper removes the column from `S`.
    pub fn common_values_by<K: Ord>(
        &self,
        t: f64,
        rank: impl Fn(&T) -> K,
    ) -> Option<CommonValues<T>> {
        assert!((0.0..1.0).contains(&t), "small group fraction t must be in [0,1), got {t}");
        let counts = self.counts.as_ref()?;
        if counts.is_empty() {
            return None;
        }
        let threshold = self.total as f64 * (1.0 - t);
        let mut pairs: Vec<(&T, u64)> = counts.iter().map(|(v, c)| (v, *c)).collect();
        pairs.sort_by_cached_key(|&(v, c)| (std::cmp::Reverse(c), rank(v)));

        let mut common: HashSet<T> = HashSet::new();
        let mut covered = 0u64;
        for (v, c) in &pairs {
            if covered as f64 >= threshold {
                break;
            }
            common.insert((*v).clone());
            covered += c;
        }
        if common.len() == counts.len() {
            // No values left over ⇒ no small groups ⇒ drop the column.
            return None;
        }
        let uncommon_rows = self.total - covered;
        Some(CommonValues {
            common,
            uncommon_rows,
            total: self.total,
        })
    }
}

/// The computed `L(C)` set for one column.
#[derive(Debug, Clone)]
pub struct CommonValues<T: Eq + Hash> {
    common: HashSet<T>,
    uncommon_rows: u64,
    total: u64,
}

impl<T: Eq + Hash> CommonValues<T> {
    /// Whether `value` is one of the common values (i.e. in `L(C)`).
    pub fn is_common(&self, value: &T) -> bool {
        self.common.contains(value)
    }

    /// Number of common values.
    pub fn num_common(&self) -> usize {
        self.common.len()
    }

    /// Number of rows carrying *uncommon* values — the size of the small
    /// group table for this column. Guaranteed `≤ N·t`.
    pub fn uncommon_rows(&self) -> u64 {
        self.uncommon_rows
    }

    /// Total rows the counter observed.
    pub fn total_rows(&self) -> u64 {
        self.total
    }

    /// Iterate over the common values.
    pub fn iter_common(&self) -> impl Iterator<Item = &T> {
        self.common.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(values: &[(&str, u64)]) -> ColumnFrequency<String> {
        let mut c = ColumnFrequency::new(1000);
        for (v, n) in values {
            for _ in 0..*n {
                c.observe(&(*v).to_owned());
            }
        }
        c
    }

    #[test]
    fn basic_counting() {
        let c = counted(&[("a", 5), ("b", 3)]);
        assert_eq!(c.total(), 8);
        assert_eq!(c.distinct(), Some(2));
        assert_eq!(c.count(&"a".to_owned()), Some(5));
        assert_eq!(c.count(&"zzz".to_owned()), Some(0));
        assert!(!c.abandoned());
    }

    #[test]
    fn tau_cutoff() {
        let mut c: ColumnFrequency<u64> = ColumnFrequency::new(10);
        for i in 0..11 {
            c.observe(&i);
        }
        assert!(c.abandoned());
        assert_eq!(c.distinct(), None);
        assert_eq!(c.count(&3), None);
        assert!(c.common_values(0.1).is_none());
        // Total keeps counting even after abandonment.
        c.observe(&0);
        assert_eq!(c.total(), 12);
    }

    #[test]
    fn repeated_values_do_not_trip_tau() {
        let mut c: ColumnFrequency<u64> = ColumnFrequency::new(2);
        for _ in 0..100 {
            c.observe(&1);
            c.observe(&2);
        }
        assert!(!c.abandoned());
        assert_eq!(c.distinct(), Some(2));
    }

    /// The paper's Example 3.1 shape: 90 "Stereo", 10 "TV", t = 0.2.
    /// L(C) must be {Stereo} (90 ≥ 100·0.8) and the small group table holds
    /// the 10 TV rows.
    #[test]
    fn example_3_1_partition() {
        let c = counted(&[("Stereo", 90), ("TV", 10)]);
        let lc = c.common_values(0.2).expect("has small groups");
        assert!(lc.is_common(&"Stereo".to_owned()));
        assert!(!lc.is_common(&"TV".to_owned()));
        assert_eq!(lc.num_common(), 1);
        assert_eq!(lc.uncommon_rows(), 10);
    }

    #[test]
    fn minimality_of_lc() {
        // 50+30+15+5 = 100 rows, t = 0.3 → threshold 70. Greedy takes 50
        // (covered=50 < 70) then 30 (covered=80 ≥ 70) and stops: L = {a, b}.
        let c = counted(&[("a", 50), ("b", 30), ("c", 15), ("d", 5)]);
        let lc = c.common_values(0.3).unwrap();
        assert_eq!(lc.num_common(), 2);
        assert!(lc.is_common(&"a".to_owned()) && lc.is_common(&"b".to_owned()));
        assert_eq!(lc.uncommon_rows(), 20);
        assert!(lc.uncommon_rows() as f64 <= 100.0 * 0.3);
    }

    #[test]
    fn no_small_groups_column_dropped() {
        // Uniform two-value column with generous t: both values must be
        // common to reach the threshold, leaving no small groups.
        let c = counted(&[("x", 50), ("y", 50)]);
        assert!(c.common_values(0.4).is_none());
    }

    #[test]
    fn single_value_column_dropped() {
        let c = counted(&[("only", 100)]);
        assert!(c.common_values(0.1).is_none());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Four values of 25 each, t=0.45 → threshold 55 → greedy needs 3
        // values; ties broken by value order ⇒ {a, b, c}.
        let c = counted(&[("d", 25), ("b", 25), ("c", 25), ("a", 25)]);
        let lc = c.common_values(0.45).unwrap();
        assert_eq!(lc.num_common(), 3);
        assert!(!lc.is_common(&"d".to_owned()));
        assert_eq!(lc.uncommon_rows(), 25);
    }

    #[test]
    fn ties_go_to_the_smaller_rank() {
        // The tie_breaking_is_deterministic column, ranked in reverse.
        let c = counted(&[("d", 25), ("b", 25), ("c", 25), ("a", 25)]);
        let lc = c
            .common_values_by(0.45, |v| std::cmp::Reverse(v.clone()))
            .unwrap();
        assert!(!lc.is_common(&"a".to_owned()));
        assert!(lc.is_common(&"d".to_owned()));
    }

    #[test]
    fn from_counts_equals_observing() {
        let observed = counted(&[("a", 5), ("b", 3), ("c", 1)]);
        let built = ColumnFrequency::from_counts(
            [("b".to_owned(), 3), ("a".to_owned(), 5), ("c".to_owned(), 1)],
            1000,
        );
        assert_eq!(built.total(), observed.total());
        let sorted = |f: &ColumnFrequency<String>| {
            let mut pairs: Vec<(String, u64)> =
                f.counts().unwrap().map(|(v, c)| (v.clone(), c)).collect();
            pairs.sort();
            pairs
        };
        assert_eq!(sorted(&built), sorted(&observed));
        // One value past the cap abandons, exactly the cap does not.
        assert!(ColumnFrequency::from_counts((0..3u64).map(|v| (v, 1)), 2).abandoned());
        assert!(!ColumnFrequency::from_counts((0..2u64).map(|v| (v, 1)), 2).abandoned());
    }
}

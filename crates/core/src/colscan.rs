//! The two pre-processing scans (paper Section 4.2.1), one column at a time.
//!
//! [`crate::smallgroup`] and [`crate::multilevel`] both count every value
//! of every candidate column (pass 1) and then pick out the rows whose
//! value falls in some class of rare values (pass 2). Both passes run over
//! *key codes* — `(code, is_null)` as [`ResolvedColumn::key_code`] defines
//! them — and over a whole column at a time, so a dictionary or boolean
//! column costs one array lookup per row (a counter or a class per code,
//! plus one NULL slot), and so does an integer column whose values span a
//! narrow range. Only floats and wide-range integers hash.

use aqp_query::run_morsels;
use aqp_query::source::ResolvedColumn;
use aqp_sampling::ColumnFrequency;
use aqp_storage::{BitmaskColumn, Codes, Column, NullMask, Table};

/// A column value as `(code, is_null)`; see [`ResolvedColumn::key_code`].
pub type KeyCode = (u64, bool);

/// The key code of every NULL row.
const NULL_KEY: KeyCode = (0, true);

/// Widest integer range (`max - min + 1`) counted in a dense table; wider
/// columns hash. At 8 bytes a counter the table stays within 512 KB.
const DENSE_INT_SPAN: usize = 1 << 16;

/// Pass 1 over one column: how often each key code occurs, abandoned once
/// more than `tau` distinct values have been seen. Counting stops at that
/// point, so [`ColumnFrequency::total`] of an abandoned counter covers only
/// the rows scanned until then.
pub fn column_frequency(column: &Column, tau: usize) -> ColumnFrequency<KeyCode> {
    match dense_keys(column) {
        Some(DenseKeys::U8(d)) => d.count(tau),
        Some(DenseKeys::U16(d)) => d.count(tau),
        Some(DenseKeys::U32(d)) => d.count(tau),
        Some(DenseKeys::Bools(d)) => d.count(tau),
        Some(DenseKeys::Ints(d)) => d.count(tau),
        None => {
            let keys = ResolvedColumn {
                column,
                row_map: None,
            };
            let mut freq = ColumnFrequency::new(tau);
            for row in 0..column.len() {
                freq.observe(&keys.key_code(row));
                if freq.abandoned() {
                    break;
                }
            }
            freq
        }
    }
}

/// The order count ties between `column`'s key codes are broken in (see
/// [`ColumnFrequency::common_values_by`]). A dictionary code ranks by the
/// row that first uses it — the code a numbering in first-use order gives
/// it — so that the outcome does not depend on how the column's shared
/// dictionary is numbered. NULL and every other key (no rank table: not a
/// dictionary column) rank as themselves.
pub(crate) fn tie_rank(column: &Column) -> impl Fn(&KeyCode) -> KeyCode {
    let mut rank = vec![0; column.as_utf8().map_or(0, |(_, dict)| dict.len())];
    for (i, code) in column.codes_by_first_use().into_iter().enumerate() {
        rank[code as usize] = i as u64;
    }
    move |&(code, is_null)| match rank.get(code as usize) {
        Some(&rank) if !is_null => (rank, false),
        _ => (code, is_null),
    }
}

/// Pass 2 over one column: the rows whose key code `class_of` puts in a
/// class, ascending, each with its class.
pub(crate) fn classify_rows<T: Copy>(
    column: &Column,
    class_of: impl Fn(KeyCode) -> Option<T>,
) -> Vec<(usize, T)> {
    match dense_keys(column) {
        Some(DenseKeys::U8(d)) => d.pick(class_of),
        Some(DenseKeys::U16(d)) => d.pick(class_of),
        Some(DenseKeys::U32(d)) => d.pick(class_of),
        Some(DenseKeys::Bools(d)) => d.pick(class_of),
        Some(DenseKeys::Ints(d)) => d.pick(class_of),
        None => {
            let keys = ResolvedColumn {
                column,
                row_map: None,
            };
            (0..column.len())
                .filter_map(|row| class_of(keys.key_code(row)).map(|class| (row, class)))
                .collect()
        }
    }
}

/// A stored value that maps to a slot of a dense table.
trait DenseValue: Copy {
    /// The slot of `self` in a table whose slot 0 stands for `base`.
    fn slot(self, base: i64) -> usize;
}

/// Dictionary codes (at each width) and booleans are their own slots.
macro_rules! own_slot {
    ($($t:ty),*) => {$(
        impl DenseValue for $t {
            #[inline]
            fn slot(self, _: i64) -> usize {
                self as usize
            }
        }
    )*};
}
own_slot!(u8, u16, u32, bool);

impl DenseValue for i64 {
    #[inline]
    fn slot(self, base: i64) -> usize {
        (self - base) as usize
    }
}

/// A column whose key codes are small dense integers: row `r` has slot
/// `data[r].slot(base)` in `0..slots` and key code `base + slot`, or, when
/// NULL, slot `slots` and [`NULL_KEY`].
struct Dense<'a, S> {
    data: &'a [S],
    slots: usize,
    base: i64,
    nulls: Option<&'a NullMask>,
}

enum DenseKeys<'a> {
    U8(Dense<'a, u8>),
    U16(Dense<'a, u16>),
    U32(Dense<'a, u32>),
    Bools(Dense<'a, bool>),
    Ints(Dense<'a, i64>),
}

/// The dense view of a dictionary, boolean or narrow-range integer column;
/// `None` for floats and wide-range integers.
fn dense_keys(column: &Column) -> Option<DenseKeys<'_>> {
    match column {
        Column::Utf8 { codes, dict, nulls } => {
            let (slots, nulls) = (dict.len(), nulls.as_ref());
            Some(match codes {
                Codes::U8(data) => DenseKeys::U8(Dense { data, slots, base: 0, nulls }),
                Codes::U16(data) => DenseKeys::U16(Dense { data, slots, base: 0, nulls }),
                Codes::U32(data) => DenseKeys::U32(Dense { data, slots, base: 0, nulls }),
            })
        }
        Column::Bool { data, nulls } => Some(DenseKeys::Bools(Dense {
            data,
            slots: 2,
            base: 0,
            nulls: nulls.as_ref(),
        })),
        Column::Int64 { data, nulls } => {
            // NULL rows hold the placeholder 0; letting it widen the range
            // costs at most a few unused slots.
            let (&first, rest) = data.split_first()?;
            let (min, max) = rest
                .iter()
                .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let span = usize::try_from(max.checked_sub(min)?)
                .ok()?
                .checked_add(1)?;
            (span <= DENSE_INT_SPAN).then(|| {
                DenseKeys::Ints(Dense {
                    data,
                    slots: span,
                    base: min,
                    nulls: nulls.as_ref(),
                })
            })
        }
        Column::Float64 { .. } => None,
    }
}

impl<S: DenseValue> Dense<'_, S> {
    #[inline]
    fn slot_at(&self, row: usize) -> usize {
        if self.nulls.is_some_and(|m| m.is_null(row)) {
            self.slots
        } else {
            self.data[row].slot(self.base)
        }
    }

    fn key_of_slot(&self, slot: usize) -> KeyCode {
        if slot == self.slots {
            NULL_KEY
        } else {
            ((self.base + slot as i64) as u64, false)
        }
    }

    fn count(&self, tau: usize) -> ColumnFrequency<KeyCode> {
        let mut counts = vec![0u64; self.slots + 1];
        let mut distinct = 0usize;
        for row in 0..self.data.len() {
            let count = &mut counts[self.slot_at(row)];
            *count += 1;
            if *count == 1 {
                distinct += 1;
                if distinct > tau {
                    // The tau + 1 counters set so far abandon `from_counts` too.
                    break;
                }
            }
        }
        let seen = counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(slot, &count)| (self.key_of_slot(slot), count));
        ColumnFrequency::from_counts(seen, tau)
    }

    fn pick<T: Copy>(&self, class_of: impl Fn(KeyCode) -> Option<T>) -> Vec<(usize, T)> {
        let classes: Vec<Option<T>> = (0..=self.slots)
            .map(|slot| class_of(self.key_of_slot(slot)))
            .collect();
        (0..self.data.len())
            .filter_map(|row| classes[self.slot_at(row)].map(|class| (row, class)))
            .collect()
    }
}

/// `work(unit)` for every unit in `0..units`, on up to `threads` threads,
/// results in unit order. Units never share state, so the results are the
/// same at any thread count. (The executor runs fewer than 16 units inline.)
pub(crate) fn per_unit<T: Send>(
    units: usize,
    threads: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    run_morsels(units, 1, threads.max(1), |unit| work(unit.start))
}

/// The sample table holding `rows` of `view`, each tagged with its row of
/// `masks` (one mask row per view row).
pub(crate) fn sample_table(
    view: &Table,
    masks: &BitmaskColumn,
    name: impl Into<String>,
    rows: &[usize],
) -> Table {
    let mut table = view.gather(name, rows);
    table
        .attach_bitmask(masks.gather(rows))
        .expect("one mask row per gathered row");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, ValueRef};
    use std::sync::Arc;

    fn strings(values: &[Option<&str>]) -> Column {
        let mut c = Column::new(DataType::Utf8);
        for v in values {
            c.push(v.map_or(ValueRef::Null, ValueRef::Utf8)).unwrap();
        }
        c
    }

    #[test]
    fn dense_counts_include_the_null_slot() {
        let c = strings(&[Some("a"), None, Some("b"), Some("a"), None, None]);
        let f = column_frequency(&c, 10);
        assert_eq!(f.total(), 6);
        assert_eq!(f.distinct(), Some(3));
        assert_eq!(f.count(&(0, false)), Some(2));
        assert_eq!(f.count(&(1, false)), Some(1));
        assert_eq!(f.count(&NULL_KEY), Some(3));
    }

    #[test]
    fn tau_counts_distinct_values_seen_not_dictionary_entries() {
        let wide = strings(&[Some("a"), Some("b"), Some("c"), Some("d")]);
        // Four dictionary entries but only two occur in the rows.
        let (_, dict) = wide.as_utf8().unwrap();
        let sparse = Column::Utf8 {
            codes: Codes::U8(vec![0, 3, 0, 3]),
            dict: Arc::new(dict.clone()),
            nulls: None,
        };
        assert!(!column_frequency(&sparse, 2).abandoned());
        assert!(column_frequency(&wide, 3).abandoned());
        assert!(!column_frequency(&wide, 4).abandoned());
    }

    #[test]
    fn ties_rank_dictionary_codes_by_first_use() {
        let c = strings(&[Some("a"), Some("b"), None, Some("c")]);
        // The same rows on a dictionary numbered c, b, a (and one unused).
        let (_, dict) = c.as_utf8().unwrap();
        let reversed = Column::Utf8 {
            codes: Codes::U8(vec![3, 2, 0, 1]),
            dict: Arc::new(["x", "c", "b", "a"].iter().fold(
                aqp_storage::Dictionary::new(),
                |mut d, s| {
                    d.intern(s);
                    d
                },
            )),
            nulls: c.nulls().cloned(),
        };
        assert_eq!(dict.len(), 3);
        let (natural, reversed) = (tie_rank(&c), tie_rank(&reversed));
        for (code, rev) in [(0, 3), (1, 2), (2, 1)] {
            assert_eq!(natural(&(code, false)), reversed(&(rev, false)));
        }
        assert_eq!(reversed(&NULL_KEY), NULL_KEY);
        let mut ints = Column::new(DataType::Int64);
        ints.push(ValueRef::Int64(9)).unwrap();
        assert_eq!(tie_rank(&ints)(&(9, false)), (9, false));
    }

    #[test]
    fn classify_picks_rows_by_code_and_null() {
        let c = strings(&[Some("a"), None, Some("b"), Some("a")]);
        let rows = classify_rows(&c, |key| match key {
            (0, false) => Some('a'),
            NULL_KEY => Some('n'),
            _ => None,
        });
        assert_eq!(rows, vec![(0, 'a'), (1, 'n'), (3, 'a')]);

        let mut ints = Column::new(DataType::Int64);
        for v in [7i64, -1, 7] {
            ints.push(ValueRef::Int64(v)).unwrap();
        }
        ints.push_null();
        let rows = classify_rows(&ints, |key| (key == (7, false) || key.1).then_some(()));
        assert_eq!(rows, vec![(0, ()), (2, ()), (3, ())]);
    }
}

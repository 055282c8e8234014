//! Typed columns and column builders.

use crate::codes::Codes;
use crate::dictionary::Dictionary;
use crate::error::{StorageError, StorageResult};
use crate::nulls::NullMask;
use crate::value::{DataType, Value, ValueRef};
use crate::with_codes;
use std::sync::Arc;

/// A single typed column of data.
///
/// String columns are dictionary-encoded: the column stores one code per
/// row, at the narrowest width that holds its [`Dictionary`] ([`Codes`]).
/// The dictionary is shared: every column gathered from this one holds the
/// same `Arc`, so its codes are this column's codes.
/// Null rows carry a placeholder in the data vector (0, `0.0`, code 0,
/// `false`) and are marked in the null mask.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int64 {
        /// Row values (placeholder 0 for nulls).
        data: Vec<i64>,
        /// Optional null mask; `None` means fully valid.
        nulls: Option<NullMask>,
    },
    /// 64-bit floats.
    Float64 {
        /// Row values (placeholder 0.0 for nulls).
        data: Vec<f64>,
        /// Optional null mask; `None` means fully valid.
        nulls: Option<NullMask>,
    },
    /// Dictionary-encoded UTF-8 strings.
    Utf8 {
        /// Per-row dictionary codes (placeholder 0 for nulls), at the width
        /// `dict.len()` needs.
        codes: Codes,
        /// The dictionary, shared with every column gathered from this one.
        dict: Arc<Dictionary>,
        /// Optional null mask; `None` means fully valid.
        nulls: Option<NullMask>,
    },
    /// Booleans.
    Bool {
        /// Row values (placeholder `false` for nulls).
        data: Vec<bool>,
        /// Optional null mask; `None` means fully valid.
        nulls: Option<NullMask>,
    },
}

impl Column {
    /// Create an empty column of the given type.
    pub fn new(data_type: DataType) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64 { data: Vec::new(), nulls: None },
            DataType::Float64 => Column::Float64 { data: Vec::new(), nulls: None },
            DataType::Utf8 => Column::Utf8 {
                codes: Codes::default(),
                dict: Arc::default(),
                nulls: None,
            },
            DataType::Bool => Column::Bool { data: Vec::new(), nulls: None },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64 { .. } => DataType::Int64,
            Column::Float64 { .. } => DataType::Float64,
            Column::Utf8 { .. } => DataType::Utf8,
            Column::Bool { .. } => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len(),
            Column::Float64 { data, .. } => data.len(),
            Column::Utf8 { codes, .. } => codes.len(),
            Column::Bool { data, .. } => data.len(),
        }
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether row `row` is null.
    pub fn is_null(&self, row: usize) -> bool {
        let nulls = match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Utf8 { nulls, .. }
            | Column::Bool { nulls, .. } => nulls,
        };
        nulls.as_ref().is_some_and(|m| m.is_null(row))
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Utf8 { nulls, .. }
            | Column::Bool { nulls, .. } => nulls.as_ref().map_or(0, NullMask::null_count),
        }
    }

    /// Borrow the value at `row`.
    pub fn value(&self, row: usize) -> ValueRef<'_> {
        if self.is_null(row) {
            return ValueRef::Null;
        }
        match self {
            Column::Int64 { data, .. } => ValueRef::Int64(data[row]),
            Column::Float64 { data, .. } => ValueRef::Float64(data[row]),
            Column::Utf8 { codes, dict, .. } => ValueRef::Utf8(dict.value(codes.get(row))),
            Column::Bool { data, .. } => ValueRef::Bool(data[row]),
        }
    }

    /// Append a dynamically-typed value, checking the type. A string new to
    /// the dictionary that takes it past 256 or 65 536 entries widens the
    /// column's codes in place. A string goes through [`Arc::make_mut`]: a
    /// dictionary other columns share is copied first, so they never see a
    /// new entry.
    pub fn push(&mut self, value: ValueRef<'_>) -> StorageResult<()> {
        let mismatch = |col: &Column, v: ValueRef<'_>| StorageError::TypeMismatch {
            expected: col.data_type(),
            actual: format!("{v:?}"),
        };
        match (self, value) {
            (Column::Int64 { data, nulls }, ValueRef::Int64(v)) => {
                push_valid(nulls, data.len());
                data.push(v);
            }
            (Column::Float64 { data, nulls }, ValueRef::Float64(v)) => {
                push_valid(nulls, data.len());
                data.push(v);
            }
            // Int literals coerce into float columns (convenient for measures).
            (Column::Float64 { data, nulls }, ValueRef::Int64(v)) => {
                push_valid(nulls, data.len());
                data.push(v as f64);
            }
            (Column::Utf8 { codes, dict, nulls }, ValueRef::Utf8(s)) => {
                push_valid(nulls, codes.len());
                let code = Arc::make_mut(dict).intern(s);
                codes.push(code);
            }
            (Column::Bool { data, nulls }, ValueRef::Bool(v)) => {
                push_valid(nulls, data.len());
                data.push(v);
            }
            (col, ValueRef::Null) => col.push_null(),
            (col, v) => return Err(mismatch(col, v)),
        }
        Ok(())
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        match self {
            Column::Int64 { data, nulls } => {
                ensure_mask(nulls, data.len()).push(true);
                data.push(0);
            }
            Column::Float64 { data, nulls } => {
                ensure_mask(nulls, data.len()).push(true);
                data.push(0.0);
            }
            Column::Utf8 { codes, nulls, .. } => {
                ensure_mask(nulls, codes.len()).push(true);
                codes.push(0);
            }
            Column::Bool { data, nulls } => {
                ensure_mask(nulls, data.len()).push(true);
                data.push(false);
            }
        }
    }

    /// Build a new column containing only the rows at `indices` (in order).
    ///
    /// A typed copy per variant. String columns copy their codes at the
    /// source's width and share the source's dictionary, so no string is
    /// hashed. The values equal pushing `self.value(i)` for each index into
    /// an empty column, with the placeholder under NULLs and a null mask
    /// only if some gathered row is NULL.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int64 { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices);
                Column::Int64 { data, nulls }
            }
            Column::Float64 { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices);
                Column::Float64 { data, nulls }
            }
            Column::Utf8 { codes, dict, nulls } => {
                let nulls = nulls.as_ref();
                let (codes, nulls) = match codes {
                    Codes::U8(c) => {
                        let (c, n) = gather_rows(c, nulls, indices);
                        (Codes::U8(c), n)
                    }
                    Codes::U16(c) => {
                        let (c, n) = gather_rows(c, nulls, indices);
                        (Codes::U16(c), n)
                    }
                    Codes::U32(c) => {
                        let (c, n) = gather_rows(c, nulls, indices);
                        (Codes::U32(c), n)
                    }
                };
                Column::Utf8 {
                    codes,
                    dict: Arc::clone(dict),
                    nulls,
                }
            }
            Column::Bool { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices);
                Column::Bool { data, nulls }
            }
        }
    }

    /// The dictionary codes the column's non-NULL rows use, each once, in
    /// the order the rows first use them; empty for other column types.
    ///
    /// This is the order a file stores a column's dictionary in, and the
    /// order the sampler breaks frequency ties in, so that neither depends
    /// on how the shared dictionary happens to be numbered.
    pub fn codes_by_first_use(&self) -> Vec<u32> {
        let Column::Utf8 { codes, dict, nulls } = self else {
            return Vec::new();
        };
        let mut seen = vec![false; dict.len()];
        let mut order = Vec::new();
        with_codes!(codes, c => {
            for (row, &code) in c.iter().enumerate() {
                // NULL rows hold the placeholder 0, an entry or none.
                let code = u32::from(code);
                if !nulls.as_ref().is_some_and(|m| m.is_null(row)) && !seen[code as usize] {
                    seen[code as usize] = true;
                    order.push(code);
                }
            }
        });
        order
    }

    /// The column's null mask, if any null has ever been stored. `None`
    /// guarantees every row is valid, which lets vectorised kernels skip
    /// the per-row null test entirely.
    pub fn nulls(&self) -> Option<&NullMask> {
        match self {
            Column::Int64 { nulls, .. }
            | Column::Float64 { nulls, .. }
            | Column::Utf8 { nulls, .. }
            | Column::Bool { nulls, .. } => nulls.as_ref(),
        }
    }

    /// Typed access to int data for vectorised paths.
    pub fn as_int64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Typed access to float data for vectorised paths.
    pub fn as_float64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64 { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Typed access to string codes and dictionary for vectorised paths.
    pub fn as_utf8(&self) -> Option<(&Codes, &Dictionary)> {
        match self {
            Column::Utf8 { codes, dict, .. } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Typed access to bool data for vectorised paths.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Logical size of the column payload in bytes.
    ///
    /// Used by the experiment harness to report sample-table space overhead
    /// (Section 5.4.2 of the paper), and persisted as the family's total in
    /// AQPS files. Dictionary codes count 4 bytes per row whatever width
    /// they are stored at — the width they have in AQPT files — so the
    /// figure is the same at every width. Each dictionary entry some row
    /// uses counts its bytes once plus 24 for its slots in the code vector
    /// and the index: the entries a file of this column would store, not
    /// the whole shared [`Dictionary`].
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len() * 8,
            Column::Float64 { data, .. } => data.len() * 8,
            Column::Utf8 { codes, dict, .. } => {
                let entries: usize = (self.codes_by_first_use().into_iter())
                    .map(|code| dict.value(code).len() + 24)
                    .sum();
                codes.len() * 4 + entries
            }
            Column::Bool { data, .. } => data.len(),
        }
    }
}

/// `data[i]` for each `i` in `indices`, with `T::default()` under NULL
/// rows. The output mask is created at the first NULL gathered, so
/// gathering only valid rows of a column that has NULLs yields `None`.
fn gather_rows<T: Copy + Default>(
    data: &[T],
    nulls: Option<&NullMask>,
    indices: &[usize],
) -> (Vec<T>, Option<NullMask>) {
    let Some(mask) = nulls else {
        return (indices.iter().map(|&i| data[i]).collect(), None);
    };
    let mut out_nulls = None;
    let out = indices
        .iter()
        .enumerate()
        .map(|(j, &i)| {
            if mask.is_null(i) {
                out_nulls
                    .get_or_insert_with(|| NullMask::all_valid(indices.len()))
                    .set_null(j);
                T::default()
            } else {
                data[i]
            }
        })
        .collect();
    (out, out_nulls)
}

fn ensure_mask(nulls: &mut Option<NullMask>, current_len: usize) -> &mut NullMask {
    nulls.get_or_insert_with(|| NullMask::all_valid(current_len))
}

fn push_valid(nulls: &mut Option<NullMask>, _current_len: usize) {
    if let Some(mask) = nulls.as_mut() {
        mask.push(false);
    }
}

/// Incremental builder for a single column (thin convenience over
/// [`Column::push`] with owned [`Value`]s).
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
}

impl ColumnBuilder {
    /// Start building a column of the given type.
    pub fn new(data_type: DataType) -> Self {
        ColumnBuilder {
            column: Column::new(data_type),
        }
    }

    /// Append an owned value.
    pub fn push(&mut self, value: &Value) -> StorageResult<()> {
        self.column.push(value.as_ref())
    }

    /// Finish, yielding the column.
    pub fn finish(self) -> Column {
        self.column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_all_types() {
        let mut c = Column::new(DataType::Int64);
        c.push(ValueRef::Int64(5)).unwrap();
        c.push(ValueRef::Null).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0).to_owned(), Value::Int64(5));
        assert!(c.value(1).is_null());
        assert_eq!(c.null_count(), 1);

        let mut c = Column::new(DataType::Utf8);
        c.push(ValueRef::Utf8("a")).unwrap();
        c.push(ValueRef::Utf8("b")).unwrap();
        c.push(ValueRef::Utf8("a")).unwrap();
        assert_eq!(c.value(2).to_owned(), Value::Utf8("a".into()));
        let (codes, dict) = c.as_utf8().unwrap();
        assert_eq!(codes, &Codes::U8(vec![0, 1, 0]));
        assert_eq!(dict.len(), 2);

        let mut c = Column::new(DataType::Bool);
        c.push(ValueRef::Bool(true)).unwrap();
        assert_eq!(c.value(0).to_owned(), Value::Bool(true));
    }

    #[test]
    fn int_coerces_into_float_column() {
        let mut c = Column::new(DataType::Float64);
        c.push(ValueRef::Int64(3)).unwrap();
        c.push(ValueRef::Float64(0.5)).unwrap();
        assert_eq!(c.as_float64().unwrap(), &[3.0, 0.5]);
    }

    #[test]
    fn type_mismatch_is_error() {
        let mut c = Column::new(DataType::Int64);
        let err = c.push(ValueRef::Utf8("oops")).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(c.len(), 0, "failed push must not mutate");
    }

    #[test]
    fn null_mask_created_lazily() {
        let mut c = Column::new(DataType::Int64);
        for i in 0..10 {
            c.push(ValueRef::Int64(i)).unwrap();
        }
        assert_eq!(c.null_count(), 0);
        c.push_null();
        assert_eq!(c.null_count(), 1);
        for i in 0..10 {
            assert!(!c.is_null(i));
        }
        assert!(c.is_null(10));
        // Valid pushes after the mask exists keep it in sync.
        c.push(ValueRef::Int64(99)).unwrap();
        assert!(!c.is_null(11));
        assert_eq!(c.len(), 12);
    }

    #[test]
    fn gather_preserves_values_and_nulls() {
        let mut c = Column::new(DataType::Utf8);
        for s in ["x", "y", "z"] {
            c.push(ValueRef::Utf8(s)).unwrap();
        }
        c.push_null();
        let g = c.gather(&[3, 1, 1]);
        assert_eq!(g.len(), 3);
        assert!(g.value(0).is_null());
        assert_eq!(g.value(1).to_owned(), Value::Utf8("y".into()));
        assert_eq!(g.value(2).to_owned(), Value::Utf8("y".into()));
    }

    #[test]
    fn byte_size_nonzero() {
        let mut c = Column::new(DataType::Int64);
        c.push(ValueRef::Int64(1)).unwrap();
        assert_eq!(c.byte_size(), 8);
    }

    #[test]
    fn byte_size_counts_four_bytes_a_code_at_every_width() {
        let mut c = Column::new(DataType::Utf8);
        for s in ["tv", "radio", "tv", "phone"] {
            c.push(ValueRef::Utf8(s)).unwrap();
        }
        c.push_null();
        let Column::Utf8 { codes, dict, nulls } = &c else { unreachable!() };
        assert!(matches!(codes, Codes::U8(_)));
        let want = 5 * 4 + (2 + 24) + (5 + 24) + (5 + 24);
        assert_eq!(c.byte_size(), want);
        let u32s: Vec<u32> = (0..codes.len()).map(|r| codes.get(r)).collect();
        let wider = [
            Codes::U16(u32s.iter().map(|&x| x as u16).collect()),
            Codes::U32(u32s),
        ];
        for codes in wider {
            let same = Column::Utf8 { codes, dict: dict.clone(), nulls: nulls.clone() };
            assert_eq!(same.byte_size(), want);
        }
    }

    #[test]
    fn gather_copies_codes_and_shares_the_dictionary() {
        // 300 distinct strings: u16 codes.
        let mut c = Column::new(DataType::Utf8);
        for i in 0..300 {
            c.push(ValueRef::Utf8(&format!("s{i}"))).unwrap();
        }
        // 400 rows over 3 strings: still the source's codes and width.
        let few: Vec<usize> = (0..400).map(|i| i % 3 * 7).collect();
        let g = c.gather(&few);
        let (codes, dict) = g.as_utf8().unwrap();
        assert!(std::ptr::eq(dict, c.as_utf8().unwrap().1), "one dictionary");
        assert_eq!(codes, &Codes::U16(few.iter().map(|&i| i as u16).collect()));
        assert_eq!(g.value(2).to_owned(), Value::Utf8("s14".into()));
        assert_eq!(g.codes_by_first_use(), vec![0, 7, 14]);

        // A string pushed into the gathered column copies the dictionary
        // first; the source never sees it.
        let mut g = g;
        g.push(ValueRef::Utf8("new")).unwrap();
        assert_eq!(g.as_utf8().unwrap().1.len(), 301);
        assert_eq!(c.as_utf8().unwrap().1.len(), 300);
    }

    #[test]
    fn byte_size_counts_only_the_entries_rows_use() {
        let mut c = Column::new(DataType::Utf8);
        for s in ["tv", "radio", "phone"] {
            c.push(ValueRef::Utf8(s)).unwrap();
        }
        c.push_null();
        // Rows 1 and 3: "radio" and NULL.
        let g = c.gather(&[1, 3, 1]);
        assert_eq!(g.codes_by_first_use(), vec![1]);
        assert_eq!(g.byte_size(), 3 * 4 + (5 + 24));
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = ColumnBuilder::new(DataType::Float64);
        b.push(&Value::Float64(1.5)).unwrap();
        b.push(&Value::Null).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 2);
        assert!(c.value(1).is_null());
    }
}

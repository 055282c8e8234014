//! Typed columns and column builders.

use crate::codes::{codes_for, Codes};
use crate::dictionary::{CodeRemap, Dictionary};
use crate::error::{StorageError, StorageResult};
use crate::nulls::NullMask;
use crate::value::{DataType, Value, ValueRef};
use crate::with_codes;

/// A single typed column of data.
///
/// String columns are dictionary-encoded: the column stores one code per
/// row, at the narrowest width that holds its [`Dictionary`] ([`Codes`]).
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
        /// The shared dictionary for this column.
        dict: Dictionary,
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
                dict: Dictionary::new(),
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
    /// column's codes in place.
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
                let code = dict.intern(s);
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
    /// A typed copy per variant; string columns copy codes through a
    /// [`CodeRemap`], so a string is hashed once per distinct value
    /// gathered, never per row. The result equals pushing
    /// `self.value(i)` for each index into an empty column: same
    /// placeholders under NULLs, same dictionary order, and a null mask
    /// only if some gathered row is NULL.
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int64 { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices, |v| v);
                Column::Int64 { data, nulls }
            }
            Column::Float64 { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices, |v| v);
                Column::Float64 { data, nulls }
            }
            Column::Utf8 { codes, dict, nulls } => {
                // No more distinct strings can come out than rows go in:
                // codes are written at the width that bound needs, then
                // narrowed once if the dictionary came out smaller.
                let bound = dict.len().min(indices.len());
                let mut out_dict = Dictionary::with_capacity(bound);
                let mut remap = CodeRemap::new(dict.len());
                let out_nulls;
                let codes = with_codes!(codes, src => codes_for!(bound, T => {
                    let (codes, nulls) = gather_rows(src, nulls.as_ref(), indices, |code| {
                        let code = code.into();
                        remap.remap(code, || out_dict.intern_shared(dict.shared(code))) as T
                    });
                    out_nulls = nulls;
                    codes
                }));
                Column::Utf8 {
                    codes: codes.fit(out_dict.len()),
                    dict: out_dict,
                    nulls: out_nulls,
                }
            }
            Column::Bool { data, nulls } => {
                let (data, nulls) = gather_rows(data, nulls.as_ref(), indices, |v| v);
                Column::Bool { data, nulls }
            }
        }
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
    /// figure is the same at every width. A dictionary entry counts its
    /// bytes once plus 24 for its slots in the code vector and the index —
    /// the [`Dictionary`] keeps one shared copy of each string.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64 { data, .. } => data.len() * 8,
            Column::Float64 { data, .. } => data.len() * 8,
            Column::Utf8 { codes, dict, .. } => {
                codes.len() * 4 + dict.iter().map(|(_, s)| s.len() + 24).sum::<usize>()
            }
            Column::Bool { data, .. } => data.len(),
        }
    }
}

/// `copy(data[i])` for each `i` in `indices`, with `U::default()` under
/// NULL rows. The output mask is created at the first NULL gathered, so
/// gathering only valid rows of a column that has NULLs yields `None`.
fn gather_rows<T: Copy, U: Default>(
    data: &[T],
    nulls: Option<&NullMask>,
    indices: &[usize],
    mut copy: impl FnMut(T) -> U,
) -> (Vec<U>, Option<NullMask>) {
    let Some(mask) = nulls else {
        return (indices.iter().map(|&i| copy(data[i])).collect(), None);
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
                U::default()
            } else {
                copy(data[i])
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
    fn gather_writes_the_width_of_the_dictionary_it_builds() {
        // 300 distinct strings: u16 codes.
        let mut c = Column::new(DataType::Utf8);
        for i in 0..300 {
            c.push(ValueRef::Utf8(&format!("s{i}"))).unwrap();
        }
        assert!(matches!(c.as_utf8().unwrap().0, Codes::U16(_)));
        // 400 rows over 3 strings: written at u16 (the bound is 300), then
        // narrowed to u8.
        let few: Vec<usize> = (0..400).map(|i| i % 3 * 7).collect();
        let g = c.gather(&few);
        let (codes, dict) = g.as_utf8().unwrap();
        assert_eq!(dict.len(), 3);
        assert!(matches!(codes, Codes::U8(_)));
        assert_eq!(g.value(2).to_owned(), Value::Utf8("s14".into()));
        // Every row again: u16 stays.
        let all: Vec<usize> = (0..300).rev().collect();
        assert!(matches!(c.gather(&all).as_utf8().unwrap().0, Codes::U16(_)));
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

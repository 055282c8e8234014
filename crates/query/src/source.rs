//! Data sources: what a query executes against.
//!
//! The same [`crate::Query`] can run against the base star schema (exact
//! answer) or against a denormalised sample table (approximate answer) —
//! the runtime phase of dynamic sample selection is precisely the choice of
//! which source(s) to use (paper Section 3.2). [`DataSource`] abstracts the
//! two shapes and resolves qualified column names to [`ResolvedColumn`]
//! accessors that hide the join indirection.

use crate::error::{QueryError, QueryResult};
use crate::join::StarSchema;
use aqp_storage::{BitmaskColumn, Column, DataType, Table, ValueRef};

/// Canonical IEEE-754 bits for grouping floats: values SQL treats as one
/// group collapse to one bit pattern (-0.0 folds into +0.0, every NaN
/// payload into the canonical NaN). The single source of truth for float
/// group codes — both the per-row [`ResolvedColumn::key_code`] and the
/// vectorised key-extraction kernels call this, so the two cannot
/// disagree on edge-of-IEEE rows.
#[inline]
pub(crate) fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// A source of rows for query execution.
#[derive(Debug, Clone, Copy)]
pub enum DataSource<'a> {
    /// A single (possibly denormalised) table.
    Wide(&'a Table),
    /// A fact table with foreign-key-joined dimensions.
    Star(&'a StarSchema),
}

impl<'a> DataSource<'a> {
    /// Number of logical rows (fact rows for a star).
    pub fn num_rows(&self) -> usize {
        match self {
            DataSource::Wide(t) => t.num_rows(),
            DataSource::Star(s) => s.fact().num_rows(),
        }
    }

    /// The bitmask column, if the underlying table has one (sample tables).
    pub fn bitmask(&self) -> Option<&'a BitmaskColumn> {
        match self {
            DataSource::Wide(t) => t.bitmask(),
            DataSource::Star(_) => None,
        }
    }

    /// Resolve a qualified column name to an accessor.
    pub fn resolve(&self, name: &str) -> QueryResult<ResolvedColumn<'a>> {
        match self {
            DataSource::Wide(t) => {
                let idx = t
                    .schema()
                    .index_of(name)
                    .map_err(|_| QueryError::UnknownColumn { name: name.into() })?;
                Ok(ResolvedColumn {
                    column: t.column(idx),
                    row_map: None,
                })
            }
            DataSource::Star(s) => {
                let (column, row_map) = s
                    .locate(name)
                    .ok_or_else(|| QueryError::UnknownColumn { name: name.into() })?;
                Ok(ResolvedColumn { column, row_map })
            }
        }
    }

    /// Whether the source knows a column of this name.
    pub fn has_column(&self, name: &str) -> bool {
        self.resolve(name).is_ok()
    }
}

/// A column accessor that transparently follows the star join.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedColumn<'a> {
    /// The physical column (in the fact table, a dimension, or a wide view).
    pub column: &'a Column,
    /// For dimension columns: `row_map[fact_row]` = dimension row.
    pub row_map: Option<&'a [u32]>,
}

impl<'a> ResolvedColumn<'a> {
    /// The column's type.
    pub fn data_type(&self) -> DataType {
        self.column.data_type()
    }

    /// Map a logical (fact) row to the physical row in `column`.
    #[inline]
    pub fn physical_row(&self, row: usize) -> usize {
        match self.row_map {
            Some(map) => map[row] as usize,
            None => row,
        }
    }

    /// The value at logical row `row`.
    #[inline]
    pub fn value(&self, row: usize) -> ValueRef<'a> {
        self.column.value(self.physical_row(row))
    }

    /// Encode the value at `row` as a `(code, is_null)` pair for compact
    /// group keys: integers by bit pattern, floats by IEEE bits, booleans as
    /// 0/1, strings by dictionary code. Codes are only comparable within
    /// one physical column.
    #[inline]
    pub fn key_code(&self, row: usize) -> (u64, bool) {
        let prow = self.physical_row(row);
        if self.column.is_null(prow) {
            return (0, true);
        }
        let code = match self.column {
            Column::Int64 { data, .. } => data[prow] as u64,
            Column::Float64 { data, .. } => canonical_f64_bits(data[prow]),
            Column::Utf8 { codes, .. } => u64::from(codes.get(prow)),
            Column::Bool { data, .. } => data[prow] as u64,
        };
        (code, false)
    }

    /// Decode a `(code, is_null)` pair produced by [`Self::key_code`] back
    /// into an owned value.
    pub fn decode_key(&self, code: u64, is_null: bool) -> aqp_storage::Value {
        use aqp_storage::Value;
        if is_null {
            return Value::Null;
        }
        match self.column {
            Column::Int64 { .. } => Value::Int64(code as i64),
            Column::Float64 { .. } => Value::Float64(f64::from_bits(code)),
            Column::Utf8 { dict, .. } => Value::Utf8(dict.value(code as u32).to_owned()),
            Column::Bool { .. } => Value::Bool(code != 0),
        }
    }

    /// The numeric value at `row`, or `None` for null/non-numeric.
    #[inline]
    pub fn numeric(&self, row: usize) -> Option<f64> {
        self.value(row).as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{SchemaBuilder, Value};

    fn table() -> Table {
        let schema = SchemaBuilder::new()
            .field("t.i", DataType::Int64)
            .field("t.f", DataType::Float64)
            .field("t.s", DataType::Utf8)
            .field("t.b", DataType::Bool)
            .build()
            .unwrap();
        let mut t = Table::empty("t", schema);
        t.push_row(&[(-5i64).into(), 2.5f64.into(), "x".into(), true.into()])
            .unwrap();
        t.push_row(&[7i64.into(), Value::Null, "y".into(), false.into()])
            .unwrap();
        t
    }

    #[test]
    fn wide_resolution() {
        let t = table();
        let src = DataSource::Wide(&t);
        assert_eq!(src.num_rows(), 2);
        assert!(src.has_column("t.i"));
        assert!(!src.has_column("t.zzz"));
        assert!(src.bitmask().is_none());
        let c = src.resolve("t.f").unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.numeric(0), Some(2.5));
        assert_eq!(c.numeric(1), None, "null is not numeric");
    }

    #[test]
    fn key_codes_roundtrip() {
        let t = table();
        let src = DataSource::Wide(&t);
        for name in ["t.i", "t.f", "t.s", "t.b"] {
            let c = src.resolve(name).unwrap();
            for row in 0..2 {
                let (code, null) = c.key_code(row);
                let decoded = c.decode_key(code, null);
                assert_eq!(decoded, c.value(row).to_owned(), "{name} row {row}");
            }
        }
    }

    #[test]
    fn negative_int_key_roundtrip() {
        let t = table();
        let c = DataSource::Wide(&t).resolve("t.i").unwrap();
        let (code, null) = c.key_code(0);
        assert!(!null);
        assert_eq!(c.decode_key(code, null), Value::Int64(-5));
    }
}

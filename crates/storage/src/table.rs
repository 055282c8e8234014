//! Tables: a schema plus equal-length columns, with optional bitmask column.

use crate::bitmask::BitmaskColumn;
use crate::column::Column;
use crate::error::{StorageError, StorageResult};
use crate::schema::Schema;
use crate::value::{Value, ValueRef};
use crate::zonemap::ZoneMaps;
use std::sync::{Arc, OnceLock};

/// An in-memory columnar table.
///
/// A table optionally carries a [`BitmaskColumn`]: sample tables produced by
/// small group sampling tag every row with the set of small group tables
/// containing it (paper Section 4.2.1), attached whole when the table is
/// gathered or decoded; base tables have no bitmask.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    columns: Vec<Column>,
    bitmask: Option<BitmaskColumn>,
    num_rows: usize,
    /// Lazily-computed (or decoded-from-file) zone maps. Invalidated by
    /// any row mutation; derived data, so recompute is always safe.
    zone_maps: OnceLock<Arc<ZoneMaps>>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Table {
            name: name.into(),
            schema,
            columns,
            bitmask: None,
            num_rows: 0,
            zone_maps: OnceLock::new(),
        }
    }

    /// Create a table from pre-built columns. All columns must match the
    /// schema's types and have equal length.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Arc<Schema>,
        columns: Vec<Column>,
    ) -> StorageResult<Self> {
        if columns.len() != schema.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "{} columns supplied, schema has {} fields",
                columns.len(),
                schema.len()
            )));
        }
        let mut num_rows = None;
        for (col, field) in columns.iter().zip(schema.fields()) {
            if col.data_type() != field.data_type {
                return Err(StorageError::SchemaMismatch(format!(
                    "column {:?}: type {:?} != declared {:?}",
                    field.name,
                    col.data_type(),
                    field.data_type
                )));
            }
            match num_rows {
                None => num_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(StorageError::SchemaMismatch(format!(
                        "column {:?} has {} rows, expected {}",
                        field.name,
                        col.len(),
                        n
                    )))
                }
                _ => {}
            }
        }
        Ok(Table {
            name: name.into(),
            schema,
            columns,
            bitmask: None,
            num_rows: num_rows.unwrap_or(0),
            zone_maps: OnceLock::new(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (used when materialising sample tables).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Whether the table has zero rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The columns, to change how they are stored without changing a
    /// value (the file decoder re-points string columns at their shared
    /// dictionary).
    pub(crate) fn columns_mut(&mut self) -> &mut [Column] {
        &mut self.columns
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> StorageResult<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Borrow the cell at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> ValueRef<'_> {
        self.columns[col].value(row)
    }

    /// Append a row of owned values (schema order).
    pub fn push_row(&mut self, values: &[Value]) -> StorageResult<()> {
        if values.len() != self.schema.len() {
            return Err(StorageError::ArityMismatch {
                supplied: values.len(),
                expected: self.schema.len(),
            });
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v.as_ref())?;
        }
        if let Some(bm) = self.bitmask.as_mut() {
            bm.push_empty();
        }
        self.num_rows += 1;
        self.zone_maps.take();
        Ok(())
    }

    /// The bitmask column, if present.
    pub fn bitmask(&self) -> Option<&BitmaskColumn> {
        self.bitmask.as_ref()
    }

    /// Attach a fully-built bitmask column (one row per table row). Used
    /// when decoding persisted sample tables.
    pub fn attach_bitmask(&mut self, bitmask: BitmaskColumn) -> StorageResult<()> {
        if bitmask.len() != self.num_rows {
            return Err(StorageError::SchemaMismatch(format!(
                "bitmask has {} rows, table has {}",
                bitmask.len(),
                self.num_rows
            )));
        }
        self.bitmask = Some(bitmask);
        Ok(())
    }

    /// Build a new table containing the rows at `indices` (in order),
    /// preserving bitmask rows when present.
    pub fn gather(&self, name: impl Into<String>, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.gather(indices)).collect();
        let bitmask = self.bitmask.as_ref().map(|bm| bm.gather(indices));
        Table {
            name: name.into(),
            schema: Arc::clone(&self.schema),
            columns,
            bitmask,
            num_rows: indices.len(),
            zone_maps: OnceLock::new(),
        }
    }

    /// Approximate heap size of the table payload in bytes (columns plus
    /// bitmask). Used for the Section 5.4.2 space-overhead experiment.
    pub fn byte_size(&self) -> usize {
        let cols: usize = self.columns.iter().map(Column::byte_size).sum();
        let bm = self
            .bitmask
            .as_ref()
            .map_or(0, |b| b.len() * b.width() * 8);
        cols + bm
    }

    /// Extract an entire row as owned values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.schema.len())
            .map(|c| self.value(row, c).to_owned())
            .collect()
    }

    /// Decompose the table's rows into scan morsels of `morsel_rows` rows
    /// each (see [`crate::morsel`]).
    pub fn morsels(&self, morsel_rows: usize) -> crate::morsel::MorselIter {
        crate::morsel::morsels(self.num_rows, morsel_rows)
    }

    /// Zone maps for this table, computing them on first use.
    ///
    /// Tables decoded from an AQPT v3 file arrive with their persisted
    /// maps already attached ([`Table::set_zone_maps`]); older files and
    /// in-memory tables compute them lazily here. Any row mutation
    /// invalidates the cached maps, so the summaries always describe the
    /// current data.
    pub fn zone_maps(&self) -> &Arc<ZoneMaps> {
        self.zone_maps
            .get_or_init(|| Arc::new(ZoneMaps::compute(self)))
    }

    /// Zone maps if they have already been computed or decoded; `None`
    /// otherwise. Never triggers a compute (used by the encoder to decide
    /// whether persisting maps costs anything extra).
    pub fn zone_maps_if_present(&self) -> Option<&Arc<ZoneMaps>> {
        self.zone_maps.get()
    }

    /// Attach previously-persisted zone maps (file decode path). Maps
    /// whose geometry does not match the table are rejected as corrupt —
    /// callers fall back to lazy recompute.
    pub fn set_zone_maps(&mut self, maps: Arc<ZoneMaps>) -> StorageResult<()> {
        if maps.rows != self.num_rows || maps.columns.len() != self.columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "zone maps cover {} rows x {} columns, table has {} x {}",
                maps.rows,
                maps.columns.len(),
                self.num_rows,
                self.columns.len()
            )));
        }
        self.zone_maps = OnceLock::from(maps);
        Ok(())
    }
}

/// Builder that accumulates rows then yields a [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    table: Table,
}

impl TableBuilder {
    /// Start building a table.
    pub fn new(name: impl Into<String>, schema: Arc<Schema>) -> Self {
        TableBuilder {
            table: Table::empty(name, schema),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, values: &[Value]) -> StorageResult<()> {
        self.table.push_row(values)
    }

    /// Finish, yielding the table.
    pub fn finish(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmask::BitSet;
    use crate::schema::SchemaBuilder;
    use crate::value::DataType;

    fn demo_schema() -> Arc<Schema> {
        SchemaBuilder::new()
            .field("id", DataType::Int64)
            .field("name", DataType::Utf8)
            .field("price", DataType::Float64)
            .build()
            .unwrap()
    }

    fn demo_table() -> Table {
        let mut t = Table::empty("demo", demo_schema());
        t.push_row(&[1i64.into(), "tv".into(), 99.5f64.into()]).unwrap();
        t.push_row(&[2i64.into(), "stereo".into(), 49.0f64.into()]).unwrap();
        t.push_row(&[3i64.into(), Value::Null, 10.0f64.into()]).unwrap();
        t
    }

    #[test]
    fn push_and_read_rows() {
        let t = demo_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(0, 1).to_owned(), Value::Utf8("tv".into()));
        assert!(t.value(2, 1).is_null());
        assert_eq!(
            t.row(1),
            vec![2i64.into(), "stereo".into(), 49.0f64.into()]
        );
        assert_eq!(t.column_by_name("price").unwrap().len(), 3);
        assert!(t.column_by_name("nope").is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = Table::empty("demo", demo_schema());
        let err = t.push_row(&[1i64.into()]).unwrap_err();
        assert!(matches!(err, StorageError::ArityMismatch { .. }));
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn from_columns_validation() {
        let schema = demo_schema();
        let cols = vec![
            Column::new(DataType::Int64),
            Column::new(DataType::Utf8),
            Column::new(DataType::Float64),
        ];
        let t = Table::from_columns("t", Arc::clone(&schema), cols).unwrap();
        assert_eq!(t.num_rows(), 0);

        // Wrong arity.
        let cols = vec![Column::new(DataType::Int64)];
        assert!(Table::from_columns("t", Arc::clone(&schema), cols).is_err());

        // Wrong type.
        let cols = vec![
            Column::new(DataType::Utf8),
            Column::new(DataType::Utf8),
            Column::new(DataType::Float64),
        ];
        assert!(Table::from_columns("t", Arc::clone(&schema), cols).is_err());

        // Ragged lengths.
        let mut c0 = Column::new(DataType::Int64);
        c0.push(ValueRef::Int64(1)).unwrap();
        let cols = vec![
            c0,
            Column::new(DataType::Utf8),
            Column::new(DataType::Float64),
        ];
        assert!(Table::from_columns("t", schema, cols).is_err());
    }

    /// The rows of `src` at `rows`, each tagged with its mask.
    fn tagged(src: &Table, rows: &[usize], width: usize, masks: &[BitSet]) -> Table {
        let mut t = src.gather("sample", rows);
        let mut bm = BitmaskColumn::new(width);
        for mask in masks {
            bm.push(mask);
        }
        t.attach_bitmask(bm).unwrap();
        t
    }

    #[test]
    fn bitmask_rows() {
        let src = demo_table();
        let t = tagged(&src, &[0, 2], 3, &[BitSet::from_bits(3, [0]), BitSet::from_bits(3, [1, 2])]);
        assert_eq!(t.num_rows(), 2);
        let bm = t.bitmask().unwrap();
        assert!(bm.row_intersects(1, &BitSet::from_bits(3, [2])));
        assert!(!bm.row_intersects(0, &BitSet::from_bits(3, [2])));
        // Values came across.
        assert_eq!(t.value(0, 0).to_owned(), Value::Int64(1));
        assert!(t.value(1, 1).is_null());
        // One mask row per table row, or no bitmask.
        let mut short = src.gather("short", &[0, 1]);
        assert!(short.attach_bitmask(BitmaskColumn::new(3)).is_err());
    }

    #[test]
    fn gather_subsets() {
        let t = demo_table();
        let g = t.gather("sub", &[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.value(0, 0).to_owned(), Value::Int64(3));
        assert_eq!(g.value(1, 0).to_owned(), Value::Int64(1));
        assert_eq!(g.schema(), t.schema());
    }

    #[test]
    fn pushed_rows_keep_the_bitmask_aligned() {
        let src = demo_table();
        let mut t = Table::empty("s", demo_schema());
        t.attach_bitmask(BitmaskColumn::new(2)).unwrap();
        t.push_row(&src.row(0)).unwrap(); // empty mask
        t.push_row(&src.row(1)).unwrap();
        let bm = t.bitmask().unwrap();
        assert_eq!(bm.len(), 2);
        assert!(!bm.row_intersects(1, &BitSet::from_bits(2, [0, 1])));
    }

    #[test]
    fn byte_size_accounts_for_bitmask() {
        let t = tagged(&demo_table(), &[0], 2, &[BitSet::with_capacity(2)]);
        assert_eq!(t.byte_size(), 8 + (4 + 2 + 24) + 8 + 8);
    }

    #[test]
    fn builder() {
        let mut b = TableBuilder::new("t", demo_schema());
        b.push_row(&[7i64.into(), "x".into(), 1.0f64.into()]).unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.name(), "t");
    }
}

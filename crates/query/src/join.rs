//! Star schemas: a fact table joined to dimensions via foreign keys.
//!
//! The paper restricts attention to single fact tables and star schemas
//! joined through foreign keys (Section 4), because sampling is futile for
//! arbitrary joins \[3, 12\]. A [`StarSchema`] validates and precomputes the
//! fact-row → dimension-row mapping once (a hash join on the dimension
//! primary key), after which column resolution during scans is an array
//! lookup. [`StarSchema::denormalize`] materialises the joined wide view —
//! the *join synopsis* construction of \[3\] applies this to sample rows so
//! that rewritten queries touch a single narrow table at runtime. The view
//! names each join key once, by the fact's foreign-key column: the join
//! makes the dimension's primary key equal to it on every row, so a copy
//! would only add a column to the view and a duplicate small-group table
//! to the sample family. The star itself keeps both columns.

use crate::error::{QueryError, QueryResult};
use aqp_storage::{Field, Schema, Table};
use std::collections::HashMap;
use std::sync::Arc;

/// Specification of one dimension table and its join columns.
#[derive(Debug, Clone)]
pub struct Dimension {
    /// The dimension table.
    pub table: Table,
    /// Primary-key column inside the dimension table (must be `Int64`).
    /// Queries over [`DataSource::Star`](crate::DataSource::Star) may name
    /// it; the wide view leaves it out, so a query over the view names the
    /// key by `fk_column` and gets [`QueryError::UnknownColumn`] for this.
    pub pk_column: String,
    /// Foreign-key column inside the fact table (must be `Int64`).
    pub fk_column: String,
}

impl Dimension {
    /// Create a dimension binding.
    pub fn new(
        table: Table,
        pk_column: impl Into<String>,
        fk_column: impl Into<String>,
    ) -> Self {
        Dimension {
            table,
            pk_column: pk_column.into(),
            fk_column: fk_column.into(),
        }
    }
}

/// A dimension plus its precomputed per-fact-row join map.
#[derive(Debug, Clone)]
pub(crate) struct BoundDimension {
    pub(crate) dim: Dimension,
    /// `row_map[fact_row]` = matching dimension row.
    pub(crate) row_map: Vec<u32>,
}

impl BoundDimension {
    /// The dimension's fields and columns the wide view keeps: all but the
    /// primary key, which the join makes equal to the fact's foreign key.
    fn view_columns(&self) -> impl Iterator<Item = (&Field, &aqp_storage::Column)> {
        let table = &self.dim.table;
        let pk = self.dim.pk_column.as_str();
        let fields = table.schema().fields().iter();
        fields.zip(table.columns()).filter(move |(f, _)| f.name != pk)
    }
}

/// A fact table with foreign-key-joined dimension tables.
#[derive(Debug, Clone)]
pub struct StarSchema {
    fact: Table,
    dims: Vec<BoundDimension>,
}

impl StarSchema {
    /// Bind a fact table to its dimensions, building the join maps.
    ///
    /// Fails if a join column is missing or non-integer, if a dimension
    /// primary key is duplicated, or if a fact foreign key dangles.
    pub fn new(fact: Table, dimensions: Vec<Dimension>) -> QueryResult<Self> {
        let mut dims = Vec::with_capacity(dimensions.len());
        for dim in dimensions {
            let row_map = build_row_map(&fact, &dim)?;
            dims.push(BoundDimension { dim, row_map });
        }
        Ok(StarSchema { fact, dims })
    }

    /// The fact table.
    pub fn fact(&self) -> &Table {
        &self.fact
    }

    /// Number of dimensions.
    pub fn num_dimensions(&self) -> usize {
        self.dims.len()
    }

    /// The `i`-th dimension table.
    pub fn dimension(&self, i: usize) -> &Table {
        &self.dims[i].dim.table
    }

    /// Iterate over the dimensions: each table with its join columns.
    pub fn dimensions(&self) -> impl Iterator<Item = &Dimension> {
        self.dims.iter().map(|b| &b.dim)
    }

    /// Locate a column by name: in the fact table or any dimension.
    ///
    /// Returns the owning table's column plus (for dimension columns) the
    /// fact-row → dimension-row map.
    pub(crate) fn locate(
        &self,
        name: &str,
    ) -> Option<(&aqp_storage::Column, Option<&[u32]>)> {
        if let Ok(idx) = self.fact.schema().index_of(name) {
            return Some((self.fact.column(idx), None));
        }
        for b in &self.dims {
            if let Ok(idx) = b.dim.table.schema().index_of(name) {
                return Some((b.dim.table.column(idx), Some(&b.row_map)));
            }
        }
        None
    }

    /// The schema of the denormalised wide view: fact fields followed by
    /// each dimension's fields except its primary key, in declaration order.
    pub fn wide_schema(&self) -> QueryResult<Arc<Schema>> {
        let mut fields: Vec<Field> = self.fact.schema().fields().to_vec();
        for b in &self.dims {
            fields.extend(b.view_columns().map(|(f, _)| f.clone()));
        }
        Ok(Schema::new(fields)?)
    }

    /// Materialise the joined wide view over all fact rows. It has the
    /// columns of [`wide_schema`](Self::wide_schema): each join key once,
    /// named by the fact's foreign key.
    pub fn denormalize(&self, name: impl Into<String>) -> QueryResult<Table> {
        let n = self.fact.num_rows();
        let all: Vec<usize> = (0..n).collect();
        self.denormalize_rows(name, &all)
    }

    /// Materialise the joined wide view over a subset of fact rows — the
    /// core of join-synopsis construction \[3\]: sample the fact table,
    /// then join the sampled rows to their dimension rows.
    pub fn denormalize_rows(
        &self,
        name: impl Into<String>,
        fact_rows: &[usize],
    ) -> QueryResult<Table> {
        let schema = self.wide_schema()?;
        let mut columns = Vec::with_capacity(schema.len());
        // Fact columns: plain gather.
        for col in self.fact.columns() {
            columns.push(col.gather(fact_rows));
        }
        // Dimension columns: gather through the row map.
        for b in &self.dims {
            let dim_rows: Vec<usize> = fact_rows
                .iter()
                .map(|&fr| b.row_map[fr] as usize)
                .collect();
            for (_, col) in b.view_columns() {
                columns.push(col.gather(&dim_rows));
            }
        }
        Ok(Table::from_columns(name, schema, columns)?)
    }
}

/// Hash-join the fact FK column against the dimension PK column.
fn build_row_map(fact: &Table, dim: &Dimension) -> QueryResult<Vec<u32>> {
    let pk_col = dim
        .table
        .column_by_name(&dim.pk_column)
        .map_err(|_| QueryError::UnknownColumn {
            name: dim.pk_column.clone(),
        })?;
    let fk_col = fact
        .column_by_name(&dim.fk_column)
        .map_err(|_| QueryError::UnknownColumn {
            name: dim.fk_column.clone(),
        })?;
    let pk_data = pk_col.as_int64().ok_or_else(|| QueryError::InvalidJoinKey {
        column: dim.pk_column.clone(),
    })?;
    let fk_data = fk_col.as_int64().ok_or_else(|| QueryError::InvalidJoinKey {
        column: dim.fk_column.clone(),
    })?;

    assert!(
        dim.table.num_rows() <= u32::MAX as usize,
        "dimension table too large for u32 row map"
    );
    let mut index: HashMap<i64, u32> = HashMap::with_capacity(pk_data.len());
    for (row, &key) in pk_data.iter().enumerate() {
        if index.insert(key, row as u32).is_some() {
            return Err(QueryError::InvalidQuery(format!(
                "duplicate primary key {key} in dimension column {:?}",
                dim.pk_column
            )));
        }
    }

    let mut row_map = Vec::with_capacity(fk_data.len());
    for &key in fk_data {
        match index.get(&key) {
            Some(&dim_row) => row_map.push(dim_row),
            None => {
                return Err(QueryError::DanglingForeignKey {
                    fk_column: dim.fk_column.clone(),
                    key,
                })
            }
        }
    }
    Ok(row_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_storage::{DataType, SchemaBuilder, Value};

    fn dim_table() -> Table {
        let schema = SchemaBuilder::new()
            .field("part.partkey", DataType::Int64)
            .field("part.brand", DataType::Utf8)
            .build()
            .unwrap();
        let mut t = Table::empty("part", schema);
        t.push_row(&[10i64.into(), "A".into()]).unwrap();
        t.push_row(&[20i64.into(), "B".into()]).unwrap();
        t
    }

    fn fact_table(fks: &[i64]) -> Table {
        let schema = SchemaBuilder::new()
            .field("sales.partkey", DataType::Int64)
            .field("sales.qty", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("sales", schema);
        for (i, &fk) in fks.iter().enumerate() {
            t.push_row(&[fk.into(), (i as f64).into()]).unwrap();
        }
        t
    }

    fn star(fks: &[i64]) -> StarSchema {
        StarSchema::new(
            fact_table(fks),
            vec![Dimension::new(dim_table(), "part.partkey", "sales.partkey")],
        )
        .unwrap()
    }

    #[test]
    fn join_map_resolves() {
        let s = star(&[10, 20, 10, 10]);
        assert_eq!(s.num_dimensions(), 1);
        let (col, map) = s.locate("part.brand").unwrap();
        let map = map.unwrap();
        assert_eq!(map, &[0, 1, 0, 0]);
        assert_eq!(col.value(map[1] as usize).to_owned(), Value::Utf8("B".into()));
        // Fact columns resolve without a map.
        let (_, map) = s.locate("sales.qty").unwrap();
        assert!(map.is_none());
        assert!(s.locate("nope.nope").is_none());
    }

    #[test]
    fn dangling_fk_rejected() {
        let r = StarSchema::new(
            fact_table(&[10, 99]),
            vec![Dimension::new(dim_table(), "part.partkey", "sales.partkey")],
        );
        assert!(matches!(r, Err(QueryError::DanglingForeignKey { key: 99, .. })));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let schema = SchemaBuilder::new()
            .field("d.k", DataType::Int64)
            .build()
            .unwrap();
        let mut dup = Table::empty("d", schema);
        dup.push_row(&[1i64.into()]).unwrap();
        dup.push_row(&[1i64.into()]).unwrap();
        let r = StarSchema::new(
            fact_table(&[]),
            vec![Dimension::new(dup, "d.k", "sales.partkey")],
        );
        assert!(matches!(r, Err(QueryError::InvalidQuery(_))));
    }

    #[test]
    fn non_int_join_key_rejected() {
        let schema = SchemaBuilder::new()
            .field("d.k", DataType::Utf8)
            .build()
            .unwrap();
        let d = Table::empty("d", schema);
        let r = StarSchema::new(
            fact_table(&[]),
            vec![Dimension::new(d, "d.k", "sales.partkey")],
        );
        assert!(matches!(r, Err(QueryError::InvalidJoinKey { .. })));
    }

    #[test]
    fn missing_join_columns_rejected() {
        let r = StarSchema::new(
            fact_table(&[]),
            vec![Dimension::new(dim_table(), "part.zzz", "sales.partkey")],
        );
        assert!(matches!(r, Err(QueryError::UnknownColumn { .. })));
        let r = StarSchema::new(
            fact_table(&[]),
            vec![Dimension::new(dim_table(), "part.partkey", "sales.zzz")],
        );
        assert!(matches!(r, Err(QueryError::UnknownColumn { .. })));
    }

    #[test]
    fn denormalize_full() {
        let s = star(&[20, 10]);
        let wide = s.denormalize("wide").unwrap();
        assert_eq!(wide.num_rows(), 2);
        // The dimension's key is left out: `sales.partkey` names the join.
        assert_eq!(wide.schema().len(), 3);
        assert!(wide.schema().contains("sales.partkey"));
        assert!(!wide.schema().contains("part.partkey"));
        // Row 0: fk 20 → brand B.
        let brand_idx = wide.schema().index_of("part.brand").unwrap();
        assert_eq!(wide.value(0, brand_idx).to_owned(), Value::Utf8("B".into()));
        assert_eq!(wide.value(1, brand_idx).to_owned(), Value::Utf8("A".into()));
    }

    #[test]
    fn denormalize_subset_is_join_synopsis() {
        let s = star(&[10, 20, 10]);
        let syn = s.denormalize_rows("syn", &[2, 1]).unwrap();
        assert_eq!(syn.num_rows(), 2);
        let qty_idx = syn.schema().index_of("sales.qty").unwrap();
        assert_eq!(syn.value(0, qty_idx).to_owned(), Value::Float64(2.0));
        let brand_idx = syn.schema().index_of("part.brand").unwrap();
        assert_eq!(syn.value(1, brand_idx).to_owned(), Value::Utf8("B".into()));
    }
}

//! Zone maps: per-block column summaries for scan pruning.
//!
//! Every column of a table is summarised in fixed blocks of
//! [`ZONE_BLOCK_ROWS`] rows (the default morsel size, so morsel
//! boundaries always coincide with block boundaries). Each
//! [`BlockSummary`] records the row count, null count and — per column
//! type — typed bounds:
//!
//! * `Int64` — min/max over the non-null rows;
//! * `Float64` — min/max under the IEEE-754 **total order**
//!   (`f64::total_cmp`), exactly the order the compiled `FloatCmp`
//!   predicate kernel uses, so NaNs sort above +inf and `-0.0 < +0.0`
//!   and a bounds check can never disagree with the row-at-a-time
//!   predicate;
//! * `Utf8` — a presence bitmap over the dictionary codes that occur in
//!   the block, one bit per entry of the column's dictionary — the one a
//!   sample table shares with its view, so a code is the same bit in the
//!   view's maps and in every sample table's (dictionary order is not
//!   value order, but set-membership predicates compile to code sets, so
//!   presence is the useful summary);
//! * `Bool` — no bounds (blocks are never pruned by bounds; an all-null
//!   block can still be skipped via the null count).
//!
//! Zone maps are derived data: recomputing them from the column data
//! always yields the same summaries, so a missing or corrupted
//! persisted zone-map section degrades to recompute-on-demand (or to
//! unpruned scans), never to a load failure.

use crate::column::Column;
use crate::nulls::NullMask;
use crate::table::Table;
use crate::with_codes;
use std::ops::Range;

/// Rows per zone-map block. Equal to [`crate::morsel::DEFAULT_MORSEL_ROWS`]
/// so default-size morsels map 1:1 onto blocks.
pub const ZONE_BLOCK_ROWS: usize = crate::morsel::DEFAULT_MORSEL_ROWS;

/// Typed bounds for one block of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockBounds {
    /// Min/max over non-null `Int64` rows.
    Int {
        /// Smallest non-null value in the block.
        min: i64,
        /// Largest non-null value in the block.
        max: i64,
    },
    /// Min/max over non-null `Float64` rows under `f64::total_cmp`.
    Float {
        /// Smallest non-null value (total order).
        min: f64,
        /// Largest non-null value (total order).
        max: f64,
    },
    /// Presence bitmap over dictionary codes occurring in the block.
    Dict {
        /// One bit per dictionary code, little-endian u64 words.
        words: Vec<u64>,
    },
}

/// Summary of one block of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Rows covered by the block (the last block may be short).
    pub rows: u32,
    /// NULL rows in the block.
    pub null_count: u32,
    /// Typed bounds, or `None` when the block is all-null or the column
    /// type carries no bounds (`Bool`).
    pub bounds: Option<BlockBounds>,
}

impl BlockSummary {
    /// Whether every row in the block is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }
}

/// Zone map for one column: one [`BlockSummary`] per block.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZoneMap {
    /// Block summaries in block order.
    pub blocks: Vec<BlockSummary>,
}

/// Zone maps for every column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMaps {
    /// Rows per block ([`ZONE_BLOCK_ROWS`] for maps built here).
    pub block_rows: usize,
    /// Total rows summarised (must match the table's row count for the
    /// maps to be usable).
    pub rows: usize,
    /// Per-column maps in schema order.
    pub columns: Vec<ColumnZoneMap>,
}

impl ZoneMaps {
    /// Number of blocks covering `rows` rows at `block_rows` per block.
    pub fn num_blocks(&self) -> usize {
        self.rows.div_ceil(self.block_rows.max(1))
    }

    /// Compute zone maps for every column of `table`.
    pub fn compute(table: &Table) -> ZoneMaps {
        let rows = table.num_rows();
        let columns = table
            .columns()
            .iter()
            .map(|c| column_zone_map(c, rows))
            .collect();
        ZoneMaps {
            block_rows: ZONE_BLOCK_ROWS,
            rows,
            columns,
        }
    }

    /// The half-open block index range covering rows `[start, end)`.
    pub fn block_range(&self, start: usize, end: usize) -> std::ops::Range<usize> {
        if start >= end || self.block_rows == 0 {
            return 0..0;
        }
        let lo = start / self.block_rows;
        let hi = end.div_ceil(self.block_rows);
        lo..hi.min(self.num_blocks())
    }
}

fn column_zone_map(column: &Column, rows: usize) -> ColumnZoneMap {
    let num_blocks = rows.div_ceil(ZONE_BLOCK_ROWS.max(1));
    let mut blocks = Vec::with_capacity(num_blocks);
    for b in 0..num_blocks {
        let start = b * ZONE_BLOCK_ROWS;
        let end = (start + ZONE_BLOCK_ROWS).min(rows);
        blocks.push(block_summary(column, start, end));
    }
    ColumnZoneMap { blocks }
}

fn block_summary(column: &Column, start: usize, end: usize) -> BlockSummary {
    let rows = (end - start) as u32;
    let mut null_count = 0u32;
    // Null positions hold placeholder values (0 / 0.0 / code 0 / false),
    // so bounds must be folded over non-null rows only.
    let bounds = if let Some(data) = column.as_int64() {
        let mut acc: Option<(i64, i64)> = None;
        for (off, &v) in data[start..end].iter().enumerate() {
            if column.is_null(start + off) {
                null_count += 1;
                continue;
            }
            acc = Some(match acc {
                None => (v, v),
                Some((lo, hi)) => (lo.min(v), hi.max(v)),
            });
        }
        acc.map(|(min, max)| BlockBounds::Int { min, max })
    } else if let Some(data) = column.as_float64() {
        let mut acc: Option<(f64, f64)> = None;
        for (off, &v) in data[start..end].iter().enumerate() {
            if column.is_null(start + off) {
                null_count += 1;
                continue;
            }
            acc = Some(match acc {
                None => (v, v),
                Some((lo, hi)) => (
                    if v.total_cmp(&lo).is_lt() { v } else { lo },
                    if v.total_cmp(&hi).is_gt() { v } else { hi },
                ),
            });
        }
        acc.map(|(min, max)| BlockBounds::Float { min, max })
    } else if let Some((codes, dict)) = column.as_utf8() {
        // Bits are code values, so the words do not depend on the width.
        let mut words = vec![0u64; dict.len().div_ceil(64)];
        let nulls = column.nulls();
        null_count = with_codes!(codes, c => mark_codes(c, nulls, start..end, &mut words));
        (null_count < rows).then_some(BlockBounds::Dict { words })
    } else {
        for row in start..end {
            if column.is_null(row) {
                null_count += 1;
            }
        }
        None
    };
    BlockSummary {
        rows,
        null_count,
        bounds,
    }
}

/// Set the bit of every non-NULL row's code among `rows` in `words`;
/// returns the number of NULL rows.
fn mark_codes<C: Copy + Into<u32>>(
    codes: &[C],
    nulls: Option<&NullMask>,
    rows: Range<usize>,
    words: &mut [u64],
) -> u32 {
    let mut null_count = 0;
    for (row, &code) in rows.clone().zip(&codes[rows]) {
        if nulls.is_some_and(|m| m.is_null(row)) {
            null_count += 1;
        } else {
            let code = code.into() as usize;
            words[code / 64] |= 1u64 << (code % 64);
        }
    }
    null_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{DataType, Value};

    fn test_table(rows: usize) -> Table {
        let schema = SchemaBuilder::new()
            .field("i", DataType::Int64)
            .field("f", DataType::Float64)
            .field("s", DataType::Utf8)
            .field("b", DataType::Bool)
            .build()
            .unwrap();
        let mut t = Table::empty("z", schema);
        for r in 0..rows {
            let s = ["x", "y", "z"][r % 3];
            t.push_row(&[
                if r % 7 == 0 { Value::Null } else { Value::Int64(r as i64) },
                Value::Float64(r as f64 / 2.0),
                if r % 5 == 0 { Value::Null } else { s.into() },
                Value::Bool(r % 2 == 0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn blocks_cover_all_rows() {
        let t = test_table(ZONE_BLOCK_ROWS * 2 + 10);
        let zm = ZoneMaps::compute(&t);
        assert_eq!(zm.rows, t.num_rows());
        assert_eq!(zm.num_blocks(), 3);
        for col in &zm.columns {
            assert_eq!(col.blocks.len(), 3);
            let total: u32 = col.blocks.iter().map(|b| b.rows).sum();
            assert_eq!(total as usize, t.num_rows());
            assert_eq!(col.blocks[2].rows, 10);
        }
    }

    #[test]
    fn int_bounds_skip_nulls() {
        let t = test_table(100);
        let zm = ZoneMaps::compute(&t);
        let b = &zm.columns[0].blocks[0];
        // Row 0 is null (placeholder 0 must not leak into the min).
        match b.bounds {
            Some(BlockBounds::Int { min, max }) => {
                assert_eq!(min, 1);
                assert_eq!(max, 99);
            }
            ref other => panic!("unexpected bounds {other:?}"),
        }
        assert_eq!(b.null_count, 15); // rows 0,7,...,98
    }

    #[test]
    fn float_bounds_total_order() {
        let schema = SchemaBuilder::new()
            .field("f", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("f", schema);
        for v in [1.5, f64::NAN, -0.0, 0.0, -3.0] {
            t.push_row(&[Value::Float64(v)]).unwrap();
        }
        let zm = ZoneMaps::compute(&t);
        match zm.columns[0].blocks[0].bounds {
            Some(BlockBounds::Float { min, max }) => {
                assert_eq!(min, -3.0);
                assert!(max.is_nan(), "NaN is the total-order maximum");
            }
            ref other => panic!("unexpected bounds {other:?}"),
        }
    }

    #[test]
    fn dict_bitmap_tracks_presence() {
        let t = test_table(100);
        let zm = ZoneMaps::compute(&t);
        match &zm.columns[2].blocks[0].bounds {
            Some(BlockBounds::Dict { words }) => {
                // All three codes occur in the first block.
                assert_eq!(words[0] & 0b111, 0b111);
            }
            other => panic!("unexpected bounds {other:?}"),
        }
    }

    #[test]
    fn all_null_block_has_no_bounds() {
        let schema = SchemaBuilder::new()
            .field("i", DataType::Int64)
            .build()
            .unwrap();
        let mut t = Table::empty("n", schema);
        for _ in 0..5 {
            t.push_row(&[Value::Null]).unwrap();
        }
        let zm = ZoneMaps::compute(&t);
        let b = &zm.columns[0].blocks[0];
        assert!(b.all_null());
        assert!(b.bounds.is_none());
    }

    #[test]
    fn bool_column_has_no_bounds() {
        let t = test_table(10);
        let zm = ZoneMaps::compute(&t);
        assert!(zm.columns[3].blocks[0].bounds.is_none());
        assert!(!zm.columns[3].blocks[0].all_null());
    }

    #[test]
    fn block_range_clamps() {
        let t = test_table(ZONE_BLOCK_ROWS + 5);
        let zm = ZoneMaps::compute(&t);
        assert_eq!(zm.block_range(0, 10), 0..1);
        assert_eq!(zm.block_range(ZONE_BLOCK_ROWS, ZONE_BLOCK_ROWS + 5), 1..2);
        assert_eq!(zm.block_range(0, zm.rows), 0..2);
        assert_eq!(zm.block_range(5, 5), 0..0);
        // A sub-block morsel maps onto exactly its containing block.
        assert_eq!(zm.block_range(64, 128), 0..1);
    }

    #[test]
    fn empty_table() {
        let t = test_table(0);
        let zm = ZoneMaps::compute(&t);
        assert_eq!(zm.num_blocks(), 0);
        assert!(zm.columns.iter().all(|c| c.blocks.is_empty()));
        assert_eq!(zm.block_range(0, 0), 0..0);
    }
}

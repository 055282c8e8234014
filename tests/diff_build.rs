//! Differential oracle for the columnar build path.
//!
//! `Column::gather`, `StarSchema::denormalize`, the small group sampler's
//! table writes and its pass-1 histograms all run column-at-a-time on
//! dictionary codes. Each is checked here against the row-at-a-time code
//! it replaced, kept in this file as the reference: values pushed one
//! `ValueRef` at a time, sample rows pushed by [`push_rows_with_masks`],
//! one hash-map observation per row. "Equal" means identical in every way a
//! later stage can see: data vectors (placeholders under NULLs included),
//! decoded strings, whether `nulls()` is `None` (the vectorised kernels
//! branch on it), bitmask words, and the persisted bytes — which are also
//! pinned to checksums recorded from the commit before the rewrite.
//!
//! A gathered string column shares its source's dictionary, so its codes
//! are the source's, where the reference re-interns every string into a
//! dictionary of its own in first-appearance order. The file is where the
//! two must meet: it stores only the entries a column's rows use, in the
//! order the rows first use them, so both write the same bytes.

use aqp::core::persist::encode_sampler;
use aqp::core::{column_frequency, select_outliers};
use aqp::prelude::*;
use aqp::sampling::{ColumnFrequency, ReservoirSampler};
use aqp::storage::{
    crc32c, decode_table, encode_table, BitSet, Codes, Column, Dictionary, ValueRef,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic splitmix-style generator, stable across platforms.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let z = *state ^ (*state >> 31);
    z.wrapping_mul(0x9e3779b97f4a7c15) >> 17
}

/// A value index in `0..cardinality`, skewed towards the low end so that
/// columns have both common and rare values.
fn skewed(state: &mut u64, cardinality: usize) -> usize {
    let a = next(state) as usize % cardinality;
    let b = next(state) as usize % cardinality;
    a.min(b).min(next(state) as usize % cardinality)
}

/// A column of `rows` rows built by pushing, about `null_pct` % NULL.
fn random_column(
    dt: DataType,
    rows: usize,
    cardinality: usize,
    null_pct: u64,
    seed: u64,
) -> Column {
    let mut s = seed.wrapping_mul(0x517cc1b727220a95).wrapping_add(7);
    let mut col = Column::new(dt);
    for _ in 0..rows {
        if next(&mut s) % 100 < null_pct {
            col.push_null();
            continue;
        }
        let v = skewed(&mut s, cardinality);
        let text = format!("v{v:03}");
        col.push(match dt {
            DataType::Int64 => ValueRef::Int64(v as i64 * 3 - 40),
            // -0.0 and 0.0 are one group key but two bit patterns.
            DataType::Float64 if v == 0 => ValueRef::Float64(-0.0),
            DataType::Float64 => ValueRef::Float64(v as f64 * 0.5 - 0.5),
            DataType::Utf8 => ValueRef::Utf8(&text),
            DataType::Bool => ValueRef::Bool(v.is_multiple_of(2)),
        })
        .unwrap();
    }
    col
}

/// The same string column with a dictionary entry no row uses in front of
/// every entry some row does (and so with different codes).
fn with_unused_entries(col: &Column) -> Column {
    let Column::Utf8 { codes, dict, nulls } = col else {
        return col.clone();
    };
    let mut wide = Dictionary::new();
    for (code, s) in dict.iter() {
        wide.intern(&format!("ghost{code}"));
        wide.intern(s);
    }
    let codes = (0..codes.len())
        .map(|row| {
            if col.is_null(row) {
                0
            } else {
                2 * codes.get(row) + 1
            }
        })
        .collect();
    Column::Utf8 {
        codes: Codes::U32(codes).fit(wide.len()),
        dict: Arc::new(wide),
        nulls: nulls.clone(),
    }
}

/// `Column::gather` as it was: one dynamically typed push per row.
fn reference_gather(col: &Column, indices: &[usize]) -> Column {
    let mut out = Column::new(col.data_type());
    for &i in indices {
        out.push(col.value(i)).unwrap();
    }
    out
}

fn assert_columns_identical(got: &Column, want: &Column, what: &str) {
    match (got, want) {
        (Column::Int64 { data: a, .. }, Column::Int64 { data: b, .. }) => {
            assert_eq!(a, b, "{what}: data")
        }
        (Column::Float64 { data: a, .. }, Column::Float64 { data: b, .. }) => {
            let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}: data bits");
        }
        (Column::Bool { data: a, .. }, Column::Bool { data: b, .. }) => {
            assert_eq!(a, b, "{what}: data")
        }
        (Column::Utf8 { .. }, Column::Utf8 { .. }) => {
            assert_eq!(got.len(), want.len(), "{what}: rows");
            for row in 0..want.len() {
                assert_eq!(
                    got.value(row).to_owned(),
                    want.value(row).to_owned(),
                    "{what}: row {row}"
                );
            }
            assert_eq!(column_file(got), column_file(want), "{what}: file bytes");
            assert_narrowest(got, what);
            assert_narrowest(want, what);
        }
        _ => panic!("{what}: column types differ"),
    }
    assert_eq!(got.nulls(), want.nulls(), "{what}: null mask");
}

/// The file of a table holding only `col`.
fn column_file(col: &Column) -> Vec<u8> {
    let schema = SchemaBuilder::new()
        .field("c", col.data_type())
        .build()
        .unwrap();
    encode_table(&Table::from_columns("c", schema, vec![col.clone()]).unwrap()).unwrap()
}

/// The dictionary a string column holds its codes in.
fn dictionary(col: &Column) -> &Dictionary {
    col.as_utf8().expect("a string column").1
}

/// The width invariant: a string column's codes are at the narrowest width
/// that holds its dictionary.
fn assert_narrowest(col: &Column, what: &str) {
    if let Column::Utf8 { codes, dict, .. } = col {
        let (width, entries) = match codes {
            Codes::U8(_) => ("u8", 0..=256),
            Codes::U16(_) => ("u16", 257..=65_536),
            Codes::U32(_) => ("u32", 65_537..=usize::MAX),
        };
        assert!(
            entries.contains(&dict.len()),
            "{what}: {} dictionary entries stored as {width}",
            dict.len()
        );
    }
}

fn assert_tables_identical(got: &Table, want: &Table) {
    let what = want.name();
    assert_eq!(got.name(), what);
    assert_eq!(got.schema(), want.schema(), "{what}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: rows");
    for (i, field) in want.schema().fields().iter().enumerate() {
        assert_columns_identical(
            got.column(i),
            want.column(i),
            &format!("{what}.{}", field.name),
        );
    }
    match (got.bitmask(), want.bitmask()) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.width(), b.width(), "{what}: bitmask width");
            assert_eq!(a.words(), b.words(), "{what}: bitmask words");
        }
        _ => panic!("{what}: bitmask presence differs"),
    }
}

/// Index lists over `rows` rows: empty, identity, reversed, random with
/// repeats, and (when there is one) only rows where `col` is valid.
fn index_lists(col: &Column, seed: u64) -> Vec<Vec<usize>> {
    let rows = col.len();
    let mut lists = vec![Vec::new(), (0..rows).collect(), (0..rows).rev().collect()];
    if rows > 0 {
        let mut s = seed ^ 0xabcdef;
        let len = next(&mut s) as usize % (2 * rows + 1);
        lists.push((0..len).map(|_| next(&mut s) as usize % rows).collect());
        lists.push((0..rows).filter(|&r| !col.is_null(r)).collect());
    }
    lists
}

#[test]
fn gather_equals_row_at_a_time_reference() {
    let types = [
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
        DataType::Bool,
    ];
    let mut some_valid_only_gather_lost_its_mask = false;
    for seed in 0..24u64 {
        for (t, &dt) in types.iter().enumerate() {
            let rows = [0, 1, 63, 64, 65, 200][seed as usize % 6];
            let null_pct = [0, 15, 100][(seed as usize / 6 + t) % 3];
            let pushed = random_column(
                dt,
                rows,
                1 + seed as usize % 17,
                null_pct,
                seed * 31 + t as u64,
            );
            for col in [pushed.clone(), with_unused_entries(&pushed)] {
                for indices in index_lists(&col, seed) {
                    let got = col.gather(&indices);
                    let want = reference_gather(&col, &indices);
                    let what = format!(
                        "{dt:?} seed {seed} nulls {null_pct}% {} indices",
                        indices.len()
                    );
                    assert_columns_identical(&got, &want, &what);
                    if let (Some((codes, dict)), Some((src_codes, src_dict))) =
                        (got.as_utf8(), col.as_utf8())
                    {
                        // The source's dictionary, and its codes at its width.
                        assert!(std::ptr::eq(dict, src_dict), "{what}: one dictionary");
                        let want_codes: Vec<u32> = indices
                            .iter()
                            .map(|&i| if col.is_null(i) { 0 } else { src_codes.get(i) })
                            .collect();
                        assert_eq!(
                            codes,
                            &Codes::U32(want_codes).fit(src_dict.len()),
                            "{what}: codes"
                        );
                    }
                    if col.nulls().is_some() && !indices.is_empty() && got.nulls().is_none() {
                        some_valid_only_gather_lost_its_mask = true;
                    }
                }
            }
        }
    }
    assert!(
        some_valid_only_gather_lost_its_mask,
        "the None-mask case was exercised"
    );
}

#[test]
fn a_file_drops_unused_entries_and_orders_the_rest_by_first_use() {
    let col = with_unused_entries(&random_column(DataType::Utf8, 50, 5, 10, 3));
    assert!(dictionary(&col).iter().any(|(_, s)| s.starts_with("ghost")));
    // Every row reversed: the gathered column keeps every entry, in the
    // source's order; its file keeps the used ones, in the rows' order.
    let reversed: Vec<usize> = (0..50).rev().collect();
    let gathered = col.gather(&reversed);
    assert_eq!(dictionary(&gathered).len(), dictionary(&col).len());
    let loaded = decode_table(&column_file(&gathered)).unwrap();
    let entries: Vec<String> = dictionary(loaded.column(0))
        .iter()
        .map(|(_, s)| s.to_owned())
        .collect();
    let mut first_use: Vec<String> = Vec::new();
    for row in 0..gathered.len() {
        if let ValueRef::Utf8(s) = gathered.value(row) {
            if !first_use.iter().any(|e| e == s) {
                first_use.push(s.to_owned());
            }
        }
    }
    assert!(first_use.len() <= 5);
    assert_eq!(entries, first_use);
    assert_eq!(
        column_file(&gathered),
        column_file(&reference_gather(&col, &reversed))
    );
}

/// A string column of `rows` rows, built by pushing, whose first `distinct`
/// rows spell `distinct` different strings (so its dictionary has exactly
/// that many entries); later rows repeat them, one in seven is NULL.
fn distinct_column(distinct: usize, rows: usize, seed: u64) -> Column {
    let mut s = seed;
    let mut col = Column::new(DataType::Utf8);
    for row in 0..rows {
        if row >= distinct && next(&mut s).is_multiple_of(7) {
            col.push_null();
        } else {
            let v = if row < distinct {
                row
            } else {
                skewed(&mut s, distinct)
            };
            col.push(ValueRef::Utf8(&format!("w{v}"))).unwrap();
        }
    }
    col
}

/// The same codes as `col`'s, stored at every width (the narrower ones
/// only if every code fits).
fn at_every_width(col: &Column) -> Vec<Column> {
    let Column::Utf8 { codes, dict, nulls } = col else {
        panic!("a string column")
    };
    let u32s: Vec<u32> = (0..codes.len()).map(|row| codes.get(row)).collect();
    let max = u32s.iter().copied().max().unwrap_or(0);
    let mut all = vec![Codes::U32(u32s.clone())];
    if max <= u32::from(u16::MAX) {
        all.push(Codes::U16(u32s.iter().map(|&c| c as u16).collect()));
    }
    if max <= u32::from(u8::MAX) {
        all.push(Codes::U8(u32s.iter().map(|&c| c as u8).collect()));
    }
    all.into_iter()
        .map(|codes| Column::Utf8 {
            codes,
            dict: dict.clone(),
            nulls: nulls.clone(),
        })
        .collect()
}

#[test]
fn code_widths_across_256_and_65_536_entries_match_the_push_reference() {
    for (distinct, width) in [
        (200, "u8"),
        (256, "u8"),
        (257, "u16"),
        (65_536, "u16"),
        (65_537, "u32"),
    ] {
        let rows = distinct + 3_000;
        let pushed = distinct_column(distinct, rows, distinct as u64);
        let what = format!("{distinct} entries");
        // By push: the reference itself widens at each boundary.
        assert_narrowest(&pushed, &what);
        let (codes, _) = pushed.as_utf8().unwrap();
        let got_width = match codes {
            Codes::U8(_) => "u8",
            Codes::U16(_) => "u16",
            Codes::U32(_) => "u32",
        };
        assert_eq!(got_width, width, "{what}");

        // By gather — at the source's width, onto the source's dictionary
        // — onto 3 distinct values, onto exactly 257, onto NULLs only, and
        // every row reversed: the reference's values and file bytes.
        let mut s = distinct as u64 + 1;
        let three: Vec<usize> = (0..500)
            .map(|_| [1, distinct / 2, distinct - 1][skewed(&mut s, 3)])
            .collect();
        let head = distinct.min(257);
        let some: Vec<usize> = (0..head)
            .chain((0..900).map(|_| next(&mut s) as usize % head))
            .collect();
        let null_rows: Vec<usize> = (distinct..rows)
            .filter(|&r| pushed.is_null(r))
            .take(40)
            .collect();
        let reversed: Vec<usize> = (0..rows).rev().collect();
        for (label, indices) in [
            ("three", three),
            ("some", some),
            ("nulls", null_rows),
            ("reversed", reversed),
        ] {
            let want = reference_gather(&pushed, &indices);
            assert_columns_identical(
                &pushed.gather(&indices),
                &want,
                &format!("{what}, gather {label}"),
            );
            // A source with unused entries gathers to the same values and
            // file.
            let ghosts = with_unused_entries(&pushed);
            assert_columns_identical(
                &ghosts.gather(&indices),
                &want,
                &format!("{what}, ghosts, gather {label}"),
            );
        }

        // By save -> load: the file holds the used entries only, so the
        // loaded column is the pushed one, also from a source whose
        // dictionary is half unused entries (and needs the next width up).
        let schema = SchemaBuilder::new()
            .field("s", DataType::Utf8)
            .field("ghosts", DataType::Utf8)
            .build()
            .unwrap();
        let table = Table::from_columns(
            "w",
            schema,
            vec![pushed.clone(), with_unused_entries(&pushed)],
        )
        .unwrap();
        let loaded = decode_table(&encode_table(&table).unwrap()).unwrap();
        assert_columns_identical(loaded.column(0), &pushed, &format!("{what}, loaded"));
        assert_columns_identical(
            loaded.column(1),
            &pushed,
            &format!("{what}, loaded with ghosts"),
        );

        // Zone maps and file bytes do not depend on the width.
        let one = |col: Column| {
            let schema = SchemaBuilder::new()
                .field("s", DataType::Utf8)
                .build()
                .unwrap();
            Table::from_columns("z", schema, vec![col]).unwrap()
        };
        let natural = one(pushed.clone());
        let bytes = encode_table(&natural).unwrap();
        assert_eq!(
            encode_table(&decode_table(&bytes).unwrap()).unwrap(),
            bytes,
            "{what}: save -> load -> save"
        );
        for wider in at_every_width(&pushed) {
            let other = one(wider);
            assert_eq!(
                **other.zone_maps(),
                **natural.zone_maps(),
                "{what}: zone maps"
            );
            assert_eq!(encode_table(&other).unwrap(), bytes, "{what}: file bytes");
        }
    }
}

/// A dimension table keyed by `pk = 100 + 7 * row`, with a string column
/// that has NULLs, a boolean, and a string column that is all NULL.
fn dimension(prefix: &str, rows: usize, seed: u64) -> Table {
    let schema = SchemaBuilder::new()
        .field(format!("{prefix}.key"), DataType::Int64)
        .field(format!("{prefix}.label"), DataType::Utf8)
        .field(format!("{prefix}.flag"), DataType::Bool)
        .field(format!("{prefix}.void"), DataType::Utf8)
        .build()
        .unwrap();
    let mut keys = Column::new(DataType::Int64);
    for r in 0..rows {
        keys.push(ValueRef::Int64(100 + 7 * r as i64)).unwrap();
    }
    let columns = vec![
        keys,
        random_column(DataType::Utf8, rows, 4, 20, seed),
        random_column(DataType::Bool, rows, 2, 10, seed + 1),
        random_column(DataType::Utf8, rows, 3, 100, seed + 2),
    ];
    Table::from_columns(prefix, schema, columns).unwrap()
}

#[test]
fn denormalize_equals_row_at_a_time_reference() {
    for seed in 0..12u64 {
        let mut s = seed + 99;
        let fact_rows = [0, 1, 70, 250][seed as usize % 4];
        let dims = [("d1", 3 + seed as usize % 9, "f.k1"), ("d2", 12, "f.k2")];
        let schema = SchemaBuilder::new()
            .field("f.k1", DataType::Int64)
            .field("f.k2", DataType::Int64)
            .field("f.amount", DataType::Float64)
            .field("f.tag", DataType::Utf8)
            .build()
            .unwrap();
        let mut fks: Vec<Column> = Vec::new();
        for (_, dim_rows, _) in &dims {
            let mut fk = Column::new(DataType::Int64);
            for _ in 0..fact_rows {
                // Skewed: some dimension rows are never referenced.
                fk.push(ValueRef::Int64(100 + 7 * skewed(&mut s, *dim_rows) as i64))
                    .unwrap();
            }
            fks.push(fk);
        }
        let mut columns = fks;
        columns.push(random_column(DataType::Float64, fact_rows, 9, 10, seed + 5));
        columns.push(random_column(DataType::Utf8, fact_rows, 6, 25, seed + 6));
        let fact = Table::from_columns("f", schema, columns).unwrap();
        let dim_tables: Vec<Table> = dims
            .iter()
            .map(|(name, rows, _)| dimension(name, *rows, seed * 10))
            .collect();
        let star = StarSchema::new(
            fact.clone(),
            dims.iter()
                .zip(&dim_tables)
                .map(|((name, _, fk), t)| Dimension::new(t.clone(), format!("{name}.key"), *fk))
                .collect(),
        )
        .unwrap();

        let mut subset: Vec<usize> = Vec::new();
        if fact_rows > 0 {
            subset = (0..fact_rows / 2 + 3)
                .map(|_| next(&mut s) as usize % fact_rows)
                .collect();
        }
        for fact_subset in [(0..fact_rows).collect::<Vec<_>>(), subset] {
            let got = star.denormalize_rows("wide", &fact_subset).unwrap();
            // The join as it was: every cell looked up and pushed.
            let mut want = Table::empty("wide", star.wide_schema().unwrap());
            for &fr in &fact_subset {
                let mut row = fact.row(fr);
                for ((name, _, fk), dim) in dims.iter().zip(&dim_tables) {
                    let key = fact.column_by_name(fk).unwrap().as_int64().unwrap()[fr];
                    let pks = dim
                        .column_by_name(&format!("{name}.key"))
                        .unwrap()
                        .as_int64()
                        .unwrap();
                    let dim_row = pks.iter().position(|&pk| pk == key).unwrap();
                    row.extend(dim.row(dim_row));
                }
                want.push_row(&row).unwrap();
            }
            assert_tables_identical(&got, &want);
            // Dimension columns hold their dimension's dictionary.
            let label = got.column_by_name("d1.label").unwrap();
            assert!(std::ptr::eq(
                dictionary(label),
                dictionary(dim_tables[0].column(1))
            ));
        }
        if fact_rows > 0 {
            assert_tables_identical(
                &star.denormalize("wide").unwrap(),
                &star
                    .denormalize_rows("wide", &(0..fact_rows).collect::<Vec<_>>())
                    .unwrap(),
            );
        }
    }
}

/// τ for the random view: low enough that ordinary columns cross it.
const TAU: usize = 25;

/// A view with every kind of candidate column the builder distinguishes,
/// and more than 16 of them so that `preprocess_threads` really spawns.
fn random_view(rows: usize, seed: u64) -> Table {
    let mut fields: Vec<(String, Column)> = Vec::new();
    for i in 0..10u64 {
        let null_pct = if i % 3 == 0 { 10 } else { 0 };
        let col = random_column(DataType::Utf8, rows, 2 + 3 * i as usize, null_pct, seed + i);
        fields.push((format!("s{i}"), col));
    }
    fields.push((
        "s_void".into(),
        random_column(DataType::Utf8, rows, 3, 100, seed + 20),
    ));
    // 40 distinct strings: dropped by τ.
    fields.push((
        "s_wide".into(),
        random_column(DataType::Utf8, rows, 40, 0, seed + 21),
    ));
    // A 40-entry dictionary of which 20 entries are used: kept.
    let ghost = with_unused_entries(&random_column(DataType::Utf8, rows, 20, 5, seed + 22));
    fields.push(("s_ghost".into(), ghost));
    fields.push((
        "i0".into(),
        random_column(DataType::Int64, rows, 12, 10, seed + 30),
    ));
    fields.push((
        "i1".into(),
        random_column(DataType::Int64, rows, 5, 0, seed + 31),
    ));
    // Few distinct values spread past the dense-table range: hashed.
    let mut spread = Column::new(DataType::Int64);
    let mut s = seed + 32;
    for _ in 0..rows {
        let v = [0i64, 1 << 20, 1 << 40, -5, i64::MIN, i64::MAX][skewed(&mut s, 6)];
        spread.push(ValueRef::Int64(v)).unwrap();
    }
    fields.push(("i_spread".into(), spread));
    // One value per row: dropped by τ.
    let mut serial = Column::new(DataType::Int64);
    for r in 0..rows {
        serial.push(ValueRef::Int64(r as i64)).unwrap();
    }
    fields.push(("i_serial".into(), serial));
    fields.push((
        "b0".into(),
        random_column(DataType::Bool, rows, 2, 10, seed + 40),
    ));
    fields.push((
        "f_few".into(),
        random_column(DataType::Float64, rows, 6, 10, seed + 50),
    ));
    let mut measure = Column::new(DataType::Float64);
    let mut s = seed + 51;
    for _ in 0..rows {
        if next(&mut s).is_multiple_of(20) {
            measure.push_null();
        } else {
            let v = (next(&mut s) % 100_000) as f64 / 7.0;
            measure
                .push(ValueRef::Float64(if next(&mut s).is_multiple_of(50) {
                    v * 1000.0
                } else {
                    v
                }))
                .unwrap();
        }
    }
    fields.push(("f_measure".into(), measure));

    let mut builder = SchemaBuilder::new();
    for (name, col) in &fields {
        builder = builder.field(name.clone(), col.data_type());
    }
    let columns = fields.into_iter().map(|(_, c)| c).collect();
    Table::from_columns("view", builder.build().unwrap(), columns).unwrap()
}

fn view_configs() -> Vec<(&'static str, SmallGroupConfig)> {
    let base = SmallGroupConfig {
        base_rate: 0.05,
        small_group_fraction: 0.03,
        tau: TAU,
        seed: 9,
        ..SmallGroupConfig::default()
    };
    vec![
        ("plain", base.clone()),
        (
            "pairs",
            SmallGroupConfig {
                column_pairs: vec![("s0".into(), "s1".into()), ("s2".into(), "i0".into())],
                ..base.clone()
            },
        ),
        (
            "outlier",
            SmallGroupConfig {
                overall: OverallKind::OutlierIndexed {
                    column: "f_measure".into(),
                },
                ..base
            },
        ),
    ]
}

type Key = (u64, bool);

/// A sample table holding `rows` of `view`, each tagged with its mask: one
/// dynamically typed push per cell, the way sample tables were written
/// before they were gathered, then the masks attached.
fn push_rows_with_masks(
    name: String,
    view: &Table,
    rows: &[(usize, BitSet)],
    width: usize,
) -> Table {
    let mut table = Table::empty(name, view.schema().clone());
    let mut masks = aqp::storage::BitmaskColumn::new(width);
    for (row, mask) in rows {
        table.push_row(&view.row(*row)).unwrap();
        masks.push(mask);
    }
    table.attach_bitmask(masks).unwrap();
    table
}

/// The family's tables as `SmallGroupSampler::build` wrote them before it
/// went columnar: a hash-map observation per row and unit, one bit list
/// per row, every sample table written by [`push_rows_with_masks`].
fn reference_family(view: &Table, config: &SmallGroupConfig) -> Vec<Table> {
    let n = view.num_rows();
    let src = DataSource::Wide(view);
    let mut units: Vec<Vec<String>> = view
        .schema()
        .fields()
        .iter()
        .filter(|f| !config.exclude_columns.contains(&f.name))
        .map(|f| vec![f.name.clone()])
        .collect();
    for (a, b) in &config.column_pairs {
        units.push(vec![a.clone(), b.clone()]);
    }
    let keys_of = |unit: &[String], row: usize| -> Vec<Key> {
        unit.iter()
            .map(|c| src.resolve(c).unwrap().key_code(row))
            .collect()
    };

    let mut survivors: Vec<(Vec<String>, HashSet<Vec<Key>>)> = Vec::new();
    for unit in units {
        let mut freq: ColumnFrequency<Vec<Key>> = ColumnFrequency::new(config.tau);
        for row in 0..n {
            freq.observe(&keys_of(&unit, row));
        }
        if let Some(common) = freq.common_values(config.small_group_fraction) {
            survivors.push((unit, common.iter_common().cloned().collect()));
        }
    }
    let num_units = survivors.len();
    let bits_of = |row: usize| -> Vec<usize> {
        (0..num_units)
            .filter(|&u| !survivors[u].1.contains(&keys_of(&survivors[u].0, row)))
            .collect()
    };
    let width = num_units.max(1);
    let mut sg_rows: Vec<Vec<(usize, BitSet)>> = vec![Vec::new(); num_units];
    for row in 0..n {
        let bits = bits_of(row);
        for &u in &bits {
            sg_rows[u].push((row, BitSet::from_bits(num_units, bits.iter().copied())));
        }
    }
    let sg_tables: Vec<Table> = (survivors.iter().zip(&sg_rows))
        .map(|((unit, _), rows)| {
            push_rows_with_masks(format!("sg_{}", unit.join("+")), view, rows, width)
        })
        .collect();

    let overall_target = ((n as f64 * config.base_rate).round() as usize).min(n);
    let (outliers, candidates): (Vec<usize>, Vec<usize>) = match &config.overall {
        OverallKind::Uniform => (Vec::new(), (0..n).collect()),
        OverallKind::OutlierIndexed { column } => {
            let col = src.resolve(column).unwrap();
            let valid: Vec<usize> = (0..n).filter(|&r| col.numeric(r).is_some()).collect();
            let values: Vec<f64> = valid.iter().map(|&r| col.numeric(r).unwrap()).collect();
            let k = (overall_target / 2).min(valid.len());
            let outliers: Vec<usize> = select_outliers(&values, k)
                .into_iter()
                .map(|i| valid[i])
                .collect();
            let rest = (0..n).filter(|r| !outliers.contains(r)).collect();
            (outliers, rest)
        }
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut reservoir = ReservoirSampler::<usize>::new(overall_target - outliers.len());
    for &row in &candidates {
        reservoir.observe(row, &mut rng);
    }
    let mut sampled = reservoir.into_items();
    sampled.sort_unstable();

    let mut tables = sg_tables;
    for (name, rows) in [("overall_outliers", outliers), ("overall", sampled)] {
        if name == "overall_outliers" && rows.is_empty() {
            continue;
        }
        let tagged: Vec<(usize, BitSet)> = rows
            .into_iter()
            .map(|row| (row, BitSet::from_bits(width, bits_of(row))))
            .collect();
        tables.push(push_rows_with_masks(name.into(), view, &tagged, width));
    }
    tables
}

#[test]
fn sample_tables_equal_row_at_a_time_reference() {
    for seed in [1u64, 2] {
        let view = random_view(1500, seed * 1000);
        for (label, config) in view_configs() {
            let family = SmallGroupSampler::build(&view, config.clone()).unwrap();
            let got: Vec<&Table> = family.tables().collect();
            let want = reference_family(&view, &config);
            let names = |ts: &[&Table]| ts.iter().map(|t| t.name().to_owned()).collect::<Vec<_>>();
            assert_eq!(
                names(&got),
                names(&want.iter().collect::<Vec<_>>()),
                "{label}: table list"
            );
            for (g, w) in got.iter().zip(&want) {
                assert_tables_identical(g, w);
                // Every string column holds its view column's dictionary.
                for (col, view_col) in g.columns().iter().zip(view.columns()) {
                    if let (Some((_, a)), Some((_, b))) = (col.as_utf8(), view_col.as_utf8()) {
                        assert!(
                            std::ptr::eq(a, b),
                            "{}: shares the view's dictionary",
                            g.name()
                        );
                    }
                }
            }

            // The three kinds of table are all there, and τ cut both ways.
            let dropped = &family.catalog().dropped_tau;
            assert!(
                dropped.contains(&"s_wide".to_owned()) && dropped.contains(&"i_serial".to_owned())
            );
            assert!(
                !dropped.contains(&"s_ghost".to_owned()),
                "unused entries do not count towards τ"
            );
            assert!(got
                .iter()
                .any(|t| t.name().starts_with("sg_") && t.num_rows() > 0));
            assert_eq!(
                got.iter().any(|t| t.name() == "overall_outliers"),
                label == "outlier"
            );
            if label == "pairs" {
                assert!(
                    got.iter().any(|t| t.name() == "sg_s0+s1"),
                    "a pair table survived"
                );
            }

            // Units are split across threads and never merged: same tables.
            // (`preprocess_threads` itself is persisted with the config, so
            // the comparison is on every table's bytes and the catalog.)
            for threads in [2, 8] {
                let threaded = SmallGroupSampler::build(
                    &view,
                    SmallGroupConfig {
                        preprocess_threads: threads,
                        ..config.clone()
                    },
                )
                .unwrap();
                assert_eq!(
                    table_bytes(&threaded),
                    table_bytes(&family),
                    "{label} at {threads} threads"
                );
                assert_eq!(
                    threaded.catalog(),
                    family.catalog(),
                    "{label} at {threads} threads"
                );
            }
        }
    }
}

/// `table` with every string column's dictionary numbered in reverse:
/// the same rows and values on other codes.
fn renumbered_in_reverse(table: &Table) -> Table {
    let columns = (table.columns().iter())
        .map(|col| {
            let Column::Utf8 { codes, dict, nulls } = col else {
                return col.clone();
            };
            let last = dict.len() as u32 - 1;
            let mut reversed = Dictionary::new();
            for code in (0..=last).rev() {
                reversed.intern(dict.value(code));
            }
            let codes = (0..codes.len())
                .map(|row| {
                    if col.is_null(row) {
                        0
                    } else {
                        last - codes.get(row)
                    }
                })
                .collect();
            Column::Utf8 {
                codes: Codes::U32(codes).fit(reversed.len()),
                dict: Arc::new(reversed),
                nulls: nulls.clone(),
            }
        })
        .collect();
    Table::from_columns(table.name(), Arc::clone(table.schema()), columns).unwrap()
}

#[test]
fn l_of_c_does_not_depend_on_how_a_dictionary_is_numbered() {
    // `g`: 60 "big", 15 "b", 15 "a", 10 "c" in a scrambled order. At
    // t = 0.3 the threshold is N(1−t) = 70: "big" covers 60, and either
    // 15 reaches it — a count tie exactly at the threshold. `h` ties too,
    // and the pair (g, h) is a unit of its own.
    let g: Vec<&str> = [("b", 15), ("big", 60), ("a", 15), ("c", 10)]
        .iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
        .collect();
    let h = |i: usize| ["p", "q", "p", "q", "r"][i % 5];
    let schema = SchemaBuilder::new()
        .field("g", DataType::Utf8)
        .field("h", DataType::Utf8)
        .field("x", DataType::Float64)
        .build()
        .unwrap();
    let mut view = Table::empty("v", schema);
    for i in 0..100 {
        view.push_row(&[
            g[i * 37 % 100].into(),
            h(i * 13 % 100).into(),
            (i as f64).into(),
        ])
        .unwrap();
    }
    let other = renumbered_in_reverse(&view);
    assert_ne!(
        view.column(0).as_utf8().unwrap().0,
        other.column(0).as_utf8().unwrap().0,
        "other codes"
    );
    let config = SmallGroupConfig {
        base_rate: 0.2,
        small_group_fraction: 0.3,
        seed: 4,
        column_pairs: vec![("g".into(), "h".into())],
        exclude_columns: vec!["x".into()],
        ..SmallGroupConfig::default()
    };
    let (a, b) = (
        SmallGroupSampler::build(&view, config.clone()).unwrap(),
        SmallGroupSampler::build(&other, config).unwrap(),
    );
    let g_meta = a
        .catalog()
        .columns
        .iter()
        .find(|c| c.name == "g")
        .expect("g has small groups");
    assert_eq!(g_meta.num_common, 2, "big and one of the tied values");

    // The same L(C) sets (they are in the family file), the same rows and
    // bitmasks in every table.
    assert!(
        encode_sampler(&a).unwrap() == encode_sampler(&b).unwrap(),
        "family files differ"
    );
    for (ta, tb) in a.tables().zip(b.tables()) {
        assert_eq!(ta.name(), tb.name());
        let rows = |t: &Table| (0..t.num_rows()).map(|r| t.row(r)).collect::<Vec<_>>();
        assert_eq!(rows(ta), rows(tb), "{}: rows", ta.name());
        assert_eq!(
            ta.bitmask().unwrap().words(),
            tb.bitmask().unwrap().words(),
            "{}",
            ta.name()
        );
    }

    // Bit-identical answers.
    let queries = [
        Query::builder().count().group_by("g").build().unwrap(),
        Query::builder()
            .count()
            .sum("x")
            .group_by("g")
            .group_by("h")
            .build()
            .unwrap(),
        Query::builder()
            .aggregate(AggExpr::avg("x", "avg_x"))
            .group_by("h")
            .filter(Expr::in_set("g", vec!["a".into(), "b".into(), "c".into()]))
            .build()
            .unwrap(),
    ];
    for q in &queries {
        let (mut x, mut y) = (a.answer(q, 0.95).unwrap(), b.answer(q, 0.95).unwrap());
        x.sort_by_key();
        y.sort_by_key();
        assert_eq!(x.groups.len(), y.groups.len());
        for (gx, gy) in x.groups.iter().zip(&y.groups) {
            assert_eq!(gx.key, gy.key);
            for (vx, vy) in gx.values.iter().zip(&gy.values) {
                let bits = |v: &ApproxValue| {
                    (
                        v.value().to_bits(),
                        v.ci.lo.to_bits(),
                        v.ci.hi.to_bits(),
                        v.is_exact(),
                    )
                };
                assert_eq!(bits(vx), bits(vy), "{:?}", gx.key);
            }
        }
    }
}

/// Every table of the family as it is persisted, in file order.
fn table_bytes(family: &SmallGroupSampler) -> Vec<u8> {
    family
        .tables()
        .flat_map(|t| aqp::storage::encode_table(t).unwrap())
        .collect()
}

/// Family bytes for SALES 50 k rows (z = 1.5, seed 1), r = 0.04, γ = 0.5,
/// as `(length, crc32c)` — recorded from the commit before the build path
/// went columnar.
const SALES_PLAIN: (usize, u32) = (8_475_176, 0xab60_bd42);
const SALES_PAIRS: (usize, u32) = (8_974_203, 0xc2d0_a1d1);
const SALES_OUTLIER: (usize, u32) = (8_488_623, 0x1890_27f4);
const SALES_VIEW: (usize, u32) = (13_417_722, 0x8690_38d8);

#[test]
fn sales_family_bytes_equal_the_recorded_checksums() {
    let star = gen_sales(&SalesConfig {
        fact_rows: 50_000,
        zipf_z: 1.5,
        seed: 1,
    })
    .unwrap();
    let view = star.denormalize("sales_view").unwrap();
    let view_bytes = aqp::storage::encode_table(&view).unwrap();
    assert_eq!(
        (view_bytes.len(), crc32c(&view_bytes)),
        SALES_VIEW,
        "denormalised view"
    );
    // The file orders each dictionary by first use and drops what no row
    // uses; loading it and saving again is byte-equal.
    let reloaded = aqp::storage::decode_table(&view_bytes).unwrap();
    assert_eq!(
        aqp::storage::encode_table(&reloaded).unwrap(),
        view_bytes,
        "save -> load -> save"
    );

    let base = SmallGroupConfig {
        seed: 1,
        ..SmallGroupConfig::with_rates(0.04, 0.5)
    };
    let pairs = SmallGroupConfig {
        column_pairs: vec![
            ("product.category".into(), "store.region".into()),
            ("customer.segment".into(), "time.year".into()),
        ],
        ..base.clone()
    };
    let outlier = SmallGroupConfig {
        overall: OverallKind::OutlierIndexed {
            column: "sales.revenue".into(),
        },
        ..base.clone()
    };
    let checksum = |family: &SmallGroupSampler| {
        let bytes = encode_sampler(family).unwrap();
        (bytes.len(), crc32c(&bytes))
    };
    let plain = SmallGroupSampler::build(&view, base.clone()).unwrap();
    assert_eq!(checksum(&plain), SALES_PLAIN, "plain");
    assert_eq!(
        checksum(&SmallGroupSampler::build(&view, pairs).unwrap()),
        SALES_PAIRS,
        "column pairs"
    );
    assert_eq!(
        checksum(&SmallGroupSampler::build(&view, outlier).unwrap()),
        SALES_OUTLIER,
        "outlier-indexed"
    );
    // 47 + units: enough for the executor to spawn. `preprocess_threads` is
    // persisted with the config, so compare the tables' bytes.
    for threads in [2, 8] {
        let config = SmallGroupConfig {
            preprocess_threads: threads,
            ..base.clone()
        };
        let threaded = SmallGroupSampler::build(&view, config).unwrap();
        assert_eq!(
            table_bytes(&threaded),
            table_bytes(&plain),
            "plain at {threads} threads"
        );
        assert_eq!(
            threaded.catalog(),
            plain.catalog(),
            "plain at {threads} threads"
        );
    }
}

#[test]
fn pass_one_histograms_equal_hash_map_counts() {
    let view = random_view(1500, 77);
    let src = DataSource::Wide(&view);
    let mut abandoned = Vec::new();
    let mut kept = Vec::new();
    for (field, column) in view.schema().fields().iter().zip(view.columns()) {
        let mut want: ColumnFrequency<Key> = ColumnFrequency::new(TAU);
        let keys = src.resolve(&field.name).unwrap();
        for row in 0..view.num_rows() {
            want.observe(&keys.key_code(row));
        }
        let got = column_frequency(column, TAU);
        assert_eq!(got.abandoned(), want.abandoned(), "{}", field.name);
        if want.abandoned() {
            abandoned.push(field.name.as_str());
            continue;
        }
        kept.push(field.name.as_str());
        assert_eq!(got.total(), want.total(), "{}", field.name);
        let sorted = |f: &ColumnFrequency<Key>| {
            let mut pairs: Vec<(Key, u64)> = f.counts().unwrap().map(|(k, c)| (*k, c)).collect();
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(sorted(&got), sorted(&want), "{}", field.name);
    }
    // Both outcomes on a dictionary column and on an integer column, the
    // hashed paths (floats, wide-range integers) among them.
    for name in ["s_wide", "i_serial", "f_measure"] {
        assert!(abandoned.contains(&name), "{name} crosses τ");
    }
    for name in ["s0", "s_void", "s_ghost", "i0", "i_spread", "b0", "f_few"] {
        assert!(kept.contains(&name), "{name} stays under τ");
    }
}

#[test]
fn gather_time_does_not_grow_with_string_length() {
    // Re-interning every row hashes every row's string: 16x the bytes took
    // 2.6x as long (debug and release alike). A code copy hashes none and
    // reads 1.0-1.15x. 2x sits far from both.
    let column = |len: usize| {
        let mut col = Column::new(DataType::Utf8);
        let mut s = 5u64;
        for _ in 0..20_000 {
            let v = next(&mut s) % 50;
            col.push(ValueRef::Utf8(&format!("{v:0len$}"))).unwrap();
        }
        col
    };
    let (short, long) = (column(8), column(128));
    let mut s = 11u64;
    let indices: Vec<usize> = (0..20_000)
        .map(|_| next(&mut s) as usize % 20_000)
        .collect();
    // Best of many short runs each, the two columns taking turns:
    // interference only ever adds time, a burst of it lands on both, and a
    // run of a few hundred microseconds fits inside one scheduler slice
    // even when the other tests keep every core busy.
    let time = |col: &Column| {
        let started = Instant::now();
        let gathered = col.gather(&indices);
        let took = started.elapsed();
        std::hint::black_box(gathered);
        took
    };
    let (mut short_took, mut long_took) = (time(&short), time(&long));
    for _ in 0..60 {
        short_took = short_took.min(time(&short));
        long_took = long_took.min(time(&long));
    }
    let ratio = long_took.as_secs_f64() / short_took.as_secs_f64();
    println!("128-byte strings {long_took:?}, 8-byte strings {short_took:?}: {ratio:.2}x");
    assert!(
        ratio < 2.0,
        "gathering 128-byte strings took {long_took:?}, 8-byte strings {short_took:?}: {ratio:.1}x"
    );
    // And what came out is still what the reference builds.
    let few = &indices[..500];
    assert_columns_identical(
        &long.gather(few),
        &reference_gather(&long, few),
        "long strings",
    );
}

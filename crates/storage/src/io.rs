//! Binary table persistence.
//!
//! The paper's pre-processing phase writes its sample tables to disk so
//! the runtime phase can use them across sessions ("the samples are
//! created ... and stored in the database along with metadata"). This
//! module provides a compact, self-describing little-endian binary codec
//! for [`Table`]s — columns, dictionaries, null masks, and the sample
//! bitmask column — plus file convenience wrappers.
//!
//! Format (version 3):
//!
//! ```text
//! magic "AQPT" | u16 version | u32 crc32c of the core payload
//! u64 core_len
//! core payload: name | schema | u64 rows
//!               per column: u8 type tag | null mask | payload
//!               u8 bitmask-present | (u32 width | rows*width u64 words)
//! zone section (optional): u32 crc32c of zone bytes | u64 zone_len
//!               zone bytes: per-block column summaries (zone maps)
//! ```
//!
//! Strings are `u32` length + UTF-8 bytes; vectors are `u64` count +
//! elements. Dictionary codes are `u32` whatever width the column holds
//! them at in memory ([`crate::Codes`]); the loader narrows them again.
//! Fixed-width payloads are encoded and decoded a column slice at a time.
//! The header checksum covers every core-payload byte, so any
//! core corruption — truncation, bit rot — is detected on load
//! ([`StorageError::ChecksumMismatch`]) instead of misparsing. The zone
//! section carries its **own** CRC because zone maps are derived data: a
//! corrupt zone section silently degrades to "no persisted maps" (the
//! table recomputes them on demand) instead of failing the load, while
//! corruption anywhere in the actual data still hard-fails.
//!
//! A string column's file dictionary holds only the entries its rows use,
//! in the order rows first use them (`CodeRemap`), whatever the shared
//! in-memory [`Dictionary`] holds: the bytes of a sample table do not
//! depend on its view's other rows. The persisted `Dict` zone-map bitmaps
//! are translated into the same file codes on write, and back into
//! in-memory codes on load. [`TableDecoder`] loads several tables onto one
//! dictionary per column name, as a sample family's tables were built.
//!
//! Version 3 is the only version read: any other header, the retired v2
//! layout included, is a [`StorageError::Version`].
//!
//! File writes go through [`fault::write_file_atomic`] (temp file +
//! rename), and corrupt files are quarantined to `<path>.corrupt` on load
//! (version-mismatched ones are left in place) so a bad file is never
//! re-read in a loop.
//!
//! [`fault::write_file_atomic`]: crate::fault::write_file_atomic

use crate::bitmask::BitmaskColumn;
use crate::codes::codes_for;
use crate::column::Column;
use crate::dictionary::Dictionary;
use crate::nulls::NullMask;
use crate::crc::crc32c;
use crate::error::{StorageError, StorageResult};
use crate::fault;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use crate::with_codes;
use crate::zonemap::{BlockBounds, BlockSummary, ColumnZoneMap, ZoneMaps};
use bytes::{Buf, BufMut, BytesMut};
use std::collections::HashMap;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"AQPT";
const VERSION: u16 = 3;
/// magic (4) + version (2) + crc32c (4).
const HEADER_LEN: usize = 10;

fn corrupt(msg: impl Into<String>) -> StorageError {
    StorageError::Codec(msg.into())
}

fn put_str(buf: &mut impl BufMut, s: &str) -> StorageResult<()> {
    let len = u32::try_from(s.len()).map_err(|_| {
        corrupt(format!(
            "string of {} bytes exceeds the 4 GiB codec limit",
            s.len()
        ))
    })?;
    buf.put_u32_le(len);
    buf.put_slice(s.as_bytes());
    Ok(())
}

fn get_str(buf: &mut &[u8]) -> StorageResult<String> {
    get_str_ref(buf).map(str::to_owned)
}

/// [`get_str`] without the copy: the string borrowed from the buffer.
fn get_str_ref<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a str> {
    if buf.remaining() < 4 {
        return Err(corrupt("truncated string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(corrupt("truncated string payload"));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    std::str::from_utf8(head).map_err(|_| corrupt("invalid UTF-8 in string"))
}

/// Decode `n` little-endian `N`-byte elements in one pass. The caller has
/// checked that `buf` holds them.
fn take_le<T, const N: usize>(buf: &mut &[u8], n: usize, decode: fn([u8; N]) -> T) -> Vec<T> {
    let (head, tail) = buf.split_at(n * N);
    *buf = tail;
    head.chunks_exact(N)
        .map(|chunk| decode(chunk.try_into().expect("chunks_exact yields N bytes")))
        .collect()
}

/// Encode `values` in one pass, `N` little-endian bytes each: the inverse
/// of [`take_le`].
fn put_le<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    values: &[T],
    encode: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + values.len() * N, 0);
    for (chunk, &v) in buf[start..].chunks_exact_mut(N).zip(values) {
        chunk.copy_from_slice(&encode(v));
    }
}

/// Overwrite the slots of NULL rows with the placeholder `push_null` stores.
fn clear_nulls<T: Default>(data: &mut [T], nulls: Option<&NullMask>) {
    if let Some(mask) = nulls {
        for (row, slot) in data.iter_mut().enumerate() {
            if mask.is_null(row) {
                *slot = T::default();
            }
        }
    }
}

fn type_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Utf8 => 2,
        DataType::Bool => 3,
    }
}

fn tag_type(tag: u8) -> StorageResult<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Utf8,
        3 => DataType::Bool,
        other => return Err(corrupt(format!("unknown type tag {other}"))),
    })
}

/// Append one dynamically-typed value to a buffer (tag byte + payload).
pub fn put_value(buf: &mut BytesMut, value: &crate::value::Value) -> StorageResult<()> {
    use crate::value::Value;
    match value {
        Value::Null => buf.put_u8(0),
        Value::Int64(v) => {
            buf.put_u8(1);
            buf.put_i64_le(*v);
        }
        Value::Float64(v) => {
            buf.put_u8(2);
            buf.put_f64_le(*v);
        }
        Value::Utf8(s) => {
            buf.put_u8(3);
            put_str(buf, s)?;
        }
        Value::Bool(b) => {
            buf.put_u8(4);
            buf.put_u8(*b as u8);
        }
    }
    Ok(())
}

/// Decode one value written by [`put_value`].
pub fn get_value(buf: &mut &[u8]) -> StorageResult<crate::value::Value> {
    use crate::value::Value;
    if buf.remaining() < 1 {
        return Err(corrupt("truncated value tag"));
    }
    Ok(match buf.get_u8() {
        0 => Value::Null,
        1 => {
            if buf.remaining() < 8 {
                return Err(corrupt("truncated int value"));
            }
            Value::Int64(buf.get_i64_le())
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(corrupt("truncated float value"));
            }
            Value::Float64(buf.get_f64_le())
        }
        3 => Value::Utf8(get_str(buf)?),
        4 => {
            if buf.remaining() < 1 {
                return Err(corrupt("truncated bool value"));
            }
            Value::Bool(buf.get_u8() != 0)
        }
        other => return Err(corrupt(format!("unknown value tag {other}"))),
    })
}

/// Append a length-prefixed string (public for sibling codecs).
pub fn put_string(buf: &mut BytesMut, s: &str) -> StorageResult<()> {
    put_str(buf, s)
}

/// Decode a string written by [`put_string`].
pub fn get_string(buf: &mut &[u8]) -> StorageResult<String> {
    get_str(buf)
}

/// Encode a table to bytes (checksummed v3 format, zone maps included).
///
/// Zone maps are computed here if the table does not already carry them:
/// persisting a table is the "build time" at which summaries are attached,
/// so every written file ships prunable summaries.
pub fn encode_table(table: &Table) -> StorageResult<Vec<u8>> {
    let (core, remaps) = encode_core(table)?;
    let zone = encode_zone_maps(table.zone_maps(), &remaps);
    let mut out = Vec::with_capacity(HEADER_LEN + 8 + core.len() + 12 + zone.len());
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(crc32c(&core));
    out.put_u64_le(core.len() as u64);
    out.extend_from_slice(&core);
    out.put_u32_le(crc32c(&zone));
    out.put_u64_le(zone.len() as u64);
    out.extend_from_slice(&zone);
    Ok(out)
}

/// In-memory code → file code for one string column: the dictionary
/// entries its non-NULL rows use, numbered in the order rows first use
/// them ([`Column::codes_by_first_use`]). The file stores those entries
/// only, in that order.
struct CodeRemap {
    /// In-memory codes of the stored entries, in file order.
    used: Vec<u32>,
    /// File code per in-memory code; `u32::MAX` for entries no row uses.
    file_code: Vec<u32>,
}

impl CodeRemap {
    /// The remap of a string column; `None` for the other columns.
    fn of(column: &Column) -> Option<CodeRemap> {
        let Column::Utf8 { dict, .. } = column else {
            return None;
        };
        let used = column.codes_by_first_use();
        let mut file_code = vec![u32::MAX; dict.len()];
        for (file, &code) in used.iter().enumerate() {
            file_code[code as usize] = file as u32;
        }
        Some(CodeRemap { used, file_code })
    }
}

/// A presence bitmap over one numbering of a dictionary, over another:
/// for every bit `c` set in `words`, bit `map[c]` of a `len`-bit result.
/// A bit whose entry no row uses (`map[c] == u32::MAX`) marks nothing and
/// is dropped. `None` if a set bit has no entry in `map` or lands past
/// `len`.
fn translate_words(words: &[u64], map: &[u32], len: usize) -> Option<Vec<u64>> {
    let mut out = vec![0u64; len.div_ceil(64)];
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let to = *map.get(w * 64 + bits.trailing_zeros() as usize)?;
            if to != u32::MAX {
                *out.get_mut(to as usize / 64)? |= 1 << (to % 64);
            }
            bits &= bits - 1;
        }
    }
    Some(out)
}

/// Encode the core payload (name, schema, columns, bitmask), and the code
/// remap of every string column (`None` for the other columns).
fn encode_core(table: &Table) -> StorageResult<(Vec<u8>, Vec<Option<CodeRemap>>)> {
    let remaps: Vec<Option<CodeRemap>> = table.columns().iter().map(CodeRemap::of).collect();
    // At most 8 bytes a row per column, and the bitmask words; dictionary
    // entries may grow the buffer once.
    let rows = table.num_rows();
    let words = table.bitmask().map_or(0, |bm| bm.words().len());
    let mut buf = Vec::with_capacity((rows * remaps.len() + words) * 8 + 1024);
    put_str(&mut buf, table.name())?;

    // Schema.
    buf.put_u32_le(table.schema().len() as u32);
    for f in table.schema().fields() {
        put_str(&mut buf, &f.name)?;
        buf.put_u8(type_tag(f.data_type));
    }
    buf.put_u64_le(rows as u64);

    // Columns, each payload in one pass.
    for (col, remap) in table.columns().iter().zip(&remaps) {
        buf.put_u8(type_tag(col.data_type()));
        // Null mask: packed bits (none set past the last row), omitted
        // entirely when fully valid.
        let nulls = col.nulls().filter(|m| m.null_count() > 0);
        buf.put_u8(nulls.is_some() as u8);
        if let Some(mask) = nulls {
            put_le(&mut buf, mask.words(), u64::to_le_bytes);
        }
        match col {
            Column::Int64 { data, .. } => put_le(&mut buf, data, i64::to_le_bytes),
            Column::Float64 { data, .. } => put_le(&mut buf, data, f64::to_le_bytes),
            Column::Utf8 { codes, dict, .. } => {
                let r = remap.as_ref().expect("a string column has a remap");
                buf.put_u32_le(r.used.len() as u32);
                for &code in &r.used {
                    put_str(&mut buf, dict.value(code))?;
                }
                // Files hold `u32` codes whatever the width in memory, and
                // the placeholder 0 under NULL rows.
                let file_codes: Vec<u32> = with_codes!(codes, c => (c.iter().enumerate())
                    .map(|(row, &code)| match nulls {
                        Some(mask) if mask.is_null(row) => 0,
                        _ => r.file_code[u32::from(code) as usize],
                    })
                    .collect());
                put_le(&mut buf, &file_codes, u32::to_le_bytes);
            }
            Column::Bool { data, .. } => buf.extend(data.iter().map(|&v| v as u8)),
        }
    }

    // Bitmask column.
    match table.bitmask() {
        Some(bm) => {
            buf.put_u8(1);
            buf.put_u32_le(bm.width() as u32);
            put_le(&mut buf, bm.words(), u64::to_le_bytes);
        }
        None => buf.put_u8(0),
    }

    Ok((buf, remaps))
}

/// Encode zone maps for the trailing file section, string columns' bitmaps
/// over their file codes.
fn encode_zone_maps(maps: &ZoneMaps, remaps: &[Option<CodeRemap>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32_le(maps.block_rows as u32);
    buf.put_u64_le(maps.rows as u64);
    buf.put_u32_le(maps.columns.len() as u32);
    for (col, remap) in maps.columns.iter().zip(remaps) {
        buf.put_u32_le(col.blocks.len() as u32);
        for block in &col.blocks {
            buf.put_u32_le(block.rows);
            buf.put_u32_le(block.null_count);
            match &block.bounds {
                None => buf.put_u8(0),
                Some(BlockBounds::Int { min, max }) => {
                    buf.put_u8(1);
                    buf.put_i64_le(*min);
                    buf.put_i64_le(*max);
                }
                Some(BlockBounds::Float { min, max }) => {
                    buf.put_u8(2);
                    buf.put_f64_le(*min);
                    buf.put_f64_le(*max);
                }
                Some(BlockBounds::Dict { words }) => {
                    let r = remap.as_ref().expect("a dictionary bitmap's column");
                    let words = translate_words(words, &r.file_code, r.used.len())
                        .expect("zone maps mark only codes of the table's dictionary");
                    buf.put_u8(3);
                    buf.put_u32_le(words.len() as u32);
                    put_le(&mut buf, &words, u64::to_le_bytes);
                }
            }
        }
    }
    buf
}

/// Decode a zone section written by [`encode_zone_maps`]. Strict: any
/// inconsistency is an error (the caller degrades to "no maps").
fn decode_zone_maps(mut buf: &[u8]) -> StorageResult<ZoneMaps> {
    if buf.remaining() < 16 {
        return Err(corrupt("truncated zone header"));
    }
    let block_rows = buf.get_u32_le() as usize;
    let rows = buf.get_u64_le() as usize;
    let num_columns = buf.get_u32_le() as usize;
    let mut columns = Vec::with_capacity(num_columns.min(buf.remaining()));
    for _ in 0..num_columns {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated zone column"));
        }
        let num_blocks = buf.get_u32_le() as usize;
        let mut blocks = Vec::with_capacity(num_blocks.min(buf.remaining()));
        for _ in 0..num_blocks {
            if buf.remaining() < 9 {
                return Err(corrupt("truncated zone block"));
            }
            let rows = buf.get_u32_le();
            let null_count = buf.get_u32_le();
            let bounds = match buf.get_u8() {
                0 => None,
                1 => {
                    if buf.remaining() < 16 {
                        return Err(corrupt("truncated int bounds"));
                    }
                    Some(BlockBounds::Int {
                        min: buf.get_i64_le(),
                        max: buf.get_i64_le(),
                    })
                }
                2 => {
                    if buf.remaining() < 16 {
                        return Err(corrupt("truncated float bounds"));
                    }
                    Some(BlockBounds::Float {
                        min: buf.get_f64_le(),
                        max: buf.get_f64_le(),
                    })
                }
                3 => {
                    if buf.remaining() < 4 {
                        return Err(corrupt("truncated dict bitmap length"));
                    }
                    let n = buf.get_u32_le() as usize;
                    if n.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                        return Err(corrupt("truncated dict bitmap"));
                    }
                    Some(BlockBounds::Dict {
                        words: take_le(&mut buf, n, u64::from_le_bytes),
                    })
                }
                other => return Err(corrupt(format!("unknown bounds tag {other}"))),
            };
            blocks.push(BlockSummary {
                rows,
                null_count,
                bounds,
            });
        }
        columns.push(ColumnZoneMap { blocks });
    }
    if buf.has_remaining() {
        return Err(corrupt("trailing zone bytes"));
    }
    Ok(ZoneMaps {
        block_rows,
        rows,
        columns,
    })
}

/// Decode a table from bytes produced by [`encode_table`], verifying the
/// header checksum first. A corrupt zone section never fails the load —
/// the table simply arrives without persisted summaries and recomputes
/// them on first use.
pub fn decode_table(bytes: &[u8]) -> StorageResult<Table> {
    let mut decoder = TableDecoder::default();
    decoder.decode(bytes)?;
    Ok(decoder.finish().pop().expect("one table decoded"))
}

/// Decodes tables written by [`encode_table`] onto one [`Dictionary`] per
/// column name, so that a sample family's tables — row subsets of one
/// view — share their codes again once loaded, as [`Column::gather`] built
/// them. Each table decodes, or fails, on its own.
#[derive(Debug, Default)]
pub struct TableDecoder {
    dicts: HashMap<String, Arc<Dictionary>>,
    /// Each decoded table with its persisted zone maps and code maps.
    tables: Vec<(Table, Option<ZoneMaps>, CodeMaps)>,
}

/// Per column of a decoded table, the file code → dictionary code map of
/// a string column (`None` for the other columns).
type CodeMaps = Vec<Option<Vec<u32>>>;

impl TableDecoder {
    /// Decode one more table, with [`decode_table`]'s checks.
    pub fn decode(&mut self, bytes: &[u8]) -> StorageResult<()> {
        let mut buf = bytes;
        if buf.remaining() < 4 || &buf[..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        buf.advance(4);
        if buf.remaining() < 2 {
            return Err(corrupt("truncated version"));
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(StorageError::Version {
                found: version,
                supported: VERSION,
            });
        }
        if buf.remaining() < 4 {
            return Err(corrupt("truncated checksum"));
        }
        let expected = buf.get_u32_le();

        // The checksum covers the length-prefixed core payload only.
        if buf.remaining() < 8 {
            return Err(corrupt("truncated core length"));
        }
        let core_len = buf.get_u64_le() as usize;
        if buf.remaining() < core_len {
            return Err(corrupt("truncated core payload"));
        }
        let (core, zone_section) = buf.split_at(core_len);
        let actual = crc32c(core);
        if actual != expected {
            return Err(StorageError::ChecksumMismatch { expected, actual });
        }
        let (table, code_maps) = decode_core(core, &mut self.dicts)?;
        self.tables
            .push((table, decode_zone_section(zone_section), code_maps));
        Ok(())
    }

    /// The decoded tables in decode order. Every string column holds its
    /// column name's one dictionary, codes at the width it needs, and the
    /// persisted zone maps translated onto its codes.
    pub fn finish(self) -> Vec<Table> {
        let TableDecoder { dicts, tables } = self;
        (tables.into_iter())
            .map(|(mut table, zone_maps, code_maps)| {
                let schema = Arc::clone(table.schema());
                for (col, field) in table.columns_mut().iter_mut().zip(schema.fields()) {
                    if let Column::Utf8 { codes, dict, .. } = col {
                        *dict = Arc::clone(&dicts[&field.name]);
                        *codes = std::mem::take(codes).fit(dict.len());
                    }
                }
                let maps = zone_maps.and_then(|mut maps| {
                    for ((col, map), field) in
                        maps.columns.iter_mut().zip(&code_maps).zip(schema.fields())
                    {
                        for block in &mut col.blocks {
                            if let Some(BlockBounds::Dict { words }) = &mut block.bounds {
                                let len = dicts.get(&field.name)?.len();
                                *words = translate_words(words, map.as_ref()?, len)?;
                            }
                        }
                    }
                    Some(maps)
                });
                if let Some(maps) = maps {
                    // Geometry mismatch is corruption too: fall back to lazy
                    // recompute.
                    let _ = table.set_zone_maps(Arc::new(maps));
                }
                table
            })
            .collect()
    }
}

/// Decode the optional trailing zone section. `None` on any corruption —
/// truncation, checksum mismatch, or malformed payload.
fn decode_zone_section(mut buf: &[u8]) -> Option<ZoneMaps> {
    if buf.remaining() < 12 {
        return None;
    }
    let expected = buf.get_u32_le();
    let zone_len = buf.get_u64_le() as usize;
    if buf.remaining() != zone_len {
        return None;
    }
    if crc32c(buf) != expected {
        return None;
    }
    decode_zone_maps(buf).ok()
}

/// Decode a core payload, interning string entries into `dicts` (one
/// dictionary per column name, not yet shared with any column). Errors on
/// any malformed or trailing bytes.
fn decode_core(
    mut buf: &[u8],
    dicts: &mut HashMap<String, Arc<Dictionary>>,
) -> StorageResult<(Table, CodeMaps)> {
    let name = get_str(&mut buf)?;

    // Schema.
    if buf.remaining() < 4 {
        return Err(corrupt("truncated schema"));
    }
    let num_fields = buf.get_u32_le() as usize;
    // Cap pre-allocations by the bytes actually present: corrupt counts
    // must fail element-by-element with a clean error, not abort on an
    // absurd allocation.
    let mut fields = Vec::with_capacity(num_fields.min(buf.remaining()));
    for _ in 0..num_fields {
        let fname = get_str(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(corrupt("truncated field type"));
        }
        let dt = tag_type(buf.get_u8())?;
        fields.push(Field::new(fname, dt));
    }
    let schema = Schema::new(fields)?;
    if buf.remaining() < 8 {
        return Err(corrupt("truncated row count"));
    }
    let rows = buf.get_u64_le() as usize;

    // Columns.
    let mut columns = Vec::with_capacity(num_fields);
    let mut code_maps = vec![None; schema.len()];
    for (i, field) in schema.fields().iter().enumerate() {
        if buf.remaining() < 2 {
            return Err(corrupt("truncated column header"));
        }
        let dt = tag_type(buf.get_u8())?;
        if dt != field.data_type {
            return Err(corrupt(format!(
                "column {:?}: stored type {dt:?} != schema {:?}",
                field.name, field.data_type
            )));
        }
        let has_nulls = buf.get_u8() != 0;
        // A mask with no bit set inside `rows` decodes to "fully valid",
        // as it would had each row been pushed.
        let nulls = if has_nulls {
            let n_words = rows.div_ceil(64);
            if n_words.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                return Err(corrupt("truncated null mask"));
            }
            let words = take_le(&mut buf, n_words, u64::from_le_bytes);
            Some(NullMask::from_words(words, rows)).filter(|m| m.null_count() > 0)
        } else {
            None
        };

        // Payloads are copied in bulk; NULL rows then get the placeholder
        // a pushed NULL stores, whatever the file holds under them.
        let col = match dt {
            DataType::Int64 => {
                if rows.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                    return Err(corrupt("truncated int column"));
                }
                let mut data = take_le(&mut buf, rows, i64::from_le_bytes);
                clear_nulls(&mut data, nulls.as_ref());
                Column::Int64 { data, nulls }
            }
            DataType::Float64 => {
                if rows.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                    return Err(corrupt("truncated float column"));
                }
                let mut data = take_le(&mut buf, rows, f64::from_le_bytes);
                clear_nulls(&mut data, nulls.as_ref());
                Column::Float64 { data, nulls }
            }
            DataType::Utf8 => {
                if buf.remaining() < 4 {
                    return Err(corrupt("truncated dictionary"));
                }
                let dict_len = buf.get_u32_le() as usize;
                let dict = Arc::make_mut(dicts.entry(field.name.clone()).or_default());
                let mut code_map = Vec::with_capacity(dict_len.min(buf.remaining()));
                for _ in 0..dict_len {
                    code_map.push(dict.intern(get_str_ref(&mut buf)?));
                }
                if rows.checked_mul(4).is_none_or(|b| buf.remaining() < b) {
                    return Err(corrupt("truncated codes"));
                }
                let (file_codes, rest) = buf.split_at(rows * 4);
                buf = rest;
                let codes = codes_for!(dict.len(), T => {
                    let mut codes = Vec::with_capacity(rows);
                    for (row, bytes) in file_codes.chunks_exact(4).enumerate() {
                        let code = u32::from_le_bytes(
                            bytes.try_into().expect("chunks_exact yields 4 bytes"),
                        );
                        codes.push(if nulls.as_ref().is_some_and(|m| m.is_null(row)) {
                            0
                        } else {
                            match code_map.get(code as usize) {
                                Some(&code) => code as T,
                                None => return Err(corrupt(format!("dictionary code {code} out of range"))),
                            }
                        });
                    }
                    codes
                });
                code_maps[i] = Some(code_map);
                // The dictionary goes in when the decoder finishes.
                Column::Utf8 {
                    codes,
                    dict: Arc::default(),
                    nulls,
                }
            }
            DataType::Bool => {
                if buf.remaining() < rows {
                    return Err(corrupt("truncated bool column"));
                }
                let mut data: Vec<bool> = buf[..rows].iter().map(|&b| b != 0).collect();
                buf.advance(rows);
                clear_nulls(&mut data, nulls.as_ref());
                Column::Bool { data, nulls }
            }
        };
        columns.push(col);
    }

    let mut table = Table::from_columns(name, schema, columns)?;

    // Bitmask column.
    if buf.remaining() < 1 {
        return Err(corrupt("truncated bitmask flag"));
    }
    if buf.get_u8() != 0 {
        if buf.remaining() < 4 {
            return Err(corrupt("truncated bitmask width"));
        }
        let width = buf.get_u32_le() as usize;
        if width == 0 {
            return Err(corrupt("zero bitmask width"));
        }
        if rows
            .checked_mul(width)
            .and_then(|w| w.checked_mul(8))
            .is_none_or(|b| buf.remaining() < b)
        {
            return Err(corrupt("truncated bitmask words"));
        }
        let bm = BitmaskColumn::from_words(width, take_le(&mut buf, rows * width, u64::from_le_bytes));
        table.attach_bitmask(bm)?;
    }

    if buf.has_remaining() {
        return Err(corrupt(format!("{} trailing bytes", buf.remaining())));
    }
    Ok((table, code_maps))
}

/// Write a table to a file atomically (temp file + rename): a crash
/// mid-write leaves any previous version of the file intact.
pub fn write_table_file(table: &Table, path: impl AsRef<std::path::Path>) -> StorageResult<()> {
    let path = path.as_ref();
    let bytes = encode_table(table)?;
    fault::write_file_atomic(path, &bytes)
        .map_err(|e| StorageError::Io(format!("{}: {e}", path.display())))
}

/// Read a table from a file, verifying its checksum. Corrupt files are
/// quarantined (renamed to `<path>.corrupt`) so they are not retried;
/// version-mismatched files are rejected but left in place for migration.
pub fn read_table_file(path: impl AsRef<std::path::Path>) -> StorageResult<Table> {
    let path = path.as_ref();
    let bytes = fault::read_file(path)
        .map_err(|e| StorageError::Io(format!("{}: {e}", path.display())))?;
    match decode_table(&bytes) {
        Ok(table) => Ok(table),
        Err(e @ StorageError::Version { .. }) => Err(e),
        Err(e) => {
            let _ = fault::quarantine(path);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmask::BitSet;
    use crate::schema::SchemaBuilder;
    use crate::value::Value;

    fn sample_table() -> Table {
        let schema = SchemaBuilder::new()
            .field("id", DataType::Int64)
            .field("price", DataType::Float64)
            .field("name", DataType::Utf8)
            .field("active", DataType::Bool)
            .build()
            .unwrap();
        let mut t = Table::empty("demo", schema);
        t.push_row(&[1i64.into(), 9.5f64.into(), "tv".into(), true.into()]).unwrap();
        t.push_row(&[2i64.into(), Value::Null, "stereo".into(), false.into()]).unwrap();
        t.push_row(&[Value::Null, 3.25f64.into(), Value::Null, Value::Null]).unwrap();
        t.push_row(&[4i64.into(), (-0.0f64).into(), "tv".into(), true.into()]).unwrap();
        t
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for row in 0..a.num_rows() {
            for col in 0..a.schema().len() {
                assert_eq!(
                    a.value(row, col).to_owned(),
                    b.value(row, col).to_owned(),
                    "cell ({row}, {col})"
                );
            }
        }
        match (a.bitmask(), b.bitmask()) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.len(), y.len());
                for row in 0..x.len() {
                    assert_eq!(x.row(row), y.row(row), "bitmask row {row}");
                }
            }
            _ => panic!("bitmask presence differs"),
        }
    }

    #[test]
    fn roundtrip_plain_table() {
        let t = sample_table();
        let bytes = encode_table(&t).unwrap();
        let back = decode_table(&bytes).unwrap();
        assert_tables_equal(&t, &back);
    }

    #[test]
    fn roundtrip_empty_table() {
        let schema = SchemaBuilder::new().field("x", DataType::Utf8).build().unwrap();
        let t = Table::empty("empty", schema);
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.name(), "empty");
    }

    #[test]
    fn roundtrip_with_bitmask() {
        let mut t = sample_table().gather("s", &[0, 1]);
        let mut bm = BitmaskColumn::new(130); // 3 words per row
        bm.push(&BitSet::from_bits(130, [0, 129]));
        bm.push(&BitSet::from_bits(130, [64]));
        t.attach_bitmask(bm).unwrap();
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        assert_tables_equal(&t, &back);
        assert!(back.bitmask().unwrap().row(0).contains(129));
    }

    #[test]
    fn roundtrip_long_table_null_mask() {
        // > 64 rows exercises multi-word null masks.
        let schema = SchemaBuilder::new().field("v", DataType::Int64).build().unwrap();
        let mut t = Table::empty("long", schema);
        for i in 0..200i64 {
            if i % 7 == 0 {
                t.push_row(&[Value::Null]).unwrap();
            } else {
                t.push_row(&[i.into()]).unwrap();
            }
        }
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        assert_tables_equal(&t, &back);
    }

    /// End of the CRC-protected core region: header + core_len prefix +
    /// core payload. Bytes past this point belong to the zone section.
    fn core_end(bytes: &[u8]) -> usize {
        let core_len = u64::from_le_bytes(bytes[10..18].try_into().unwrap()) as usize;
        HEADER_LEN + 8 + core_len
    }

    #[test]
    fn corruption_detected() {
        let t = sample_table();
        let good = encode_table(&t).unwrap();
        let core_end = core_end(&good);
        assert!(core_end < good.len(), "v3 files carry a zone section");

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_table(&bad), Err(StorageError::Codec(_))));

        // Bad version: typed error naming found and supported versions.
        let mut bad = good.clone();
        bad[4] = 99;
        match decode_table(&bad) {
            Err(StorageError::Version { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected Version error, got {other:?}"),
        }

        // Truncation inside the protected core must error, never panic.
        for len in 0..core_end {
            assert!(decode_table(&good[..len]).is_err(), "prefix {len}");
        }
        // Truncation inside the zone section degrades: the table loads
        // (data is intact) with the summaries dropped.
        for len in core_end..good.len() {
            let back = decode_table(&good[..len]).unwrap();
            assert_tables_equal(&t, &back);
            assert!(back.zone_maps_if_present().is_none(), "prefix {len}");
        }

        // Trailing garbage invalidates the zone section only.
        let mut bad = good.clone();
        bad.push(0);
        let back = decode_table(&bad).unwrap();
        assert_tables_equal(&t, &back);
        assert!(back.zone_maps_if_present().is_none());

        // A core byte flip is caught by the checksum.
        let mut bad = good.clone();
        let mid = HEADER_LEN + 8 + (core_end - HEADER_LEN - 8) / 2;
        bad[mid] ^= 0x40;
        assert!(matches!(
            decode_table(&bad),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn zone_maps_roundtrip_in_v3_files() {
        let t = sample_table();
        let computed = t.zone_maps().clone();
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        let persisted = back
            .zone_maps_if_present()
            .expect("v3 decode attaches persisted maps without recompute");
        assert_eq!(**persisted, *computed);
    }

    #[test]
    fn v2_header_is_a_version_error_and_the_file_stays() {
        // The retired v2 framing: whole-payload checksum, no zone section.
        let (core, _) = encode_core(&sample_table()).unwrap();
        let mut v2 = Vec::with_capacity(HEADER_LEN + core.len());
        v2.put_slice(MAGIC);
        v2.put_u16_le(2);
        v2.put_u32_le(crc32c(&core));
        v2.extend_from_slice(&core);
        assert!(matches!(
            decode_table(&v2),
            Err(StorageError::Version {
                found: 2,
                supported: 3
            })
        ));

        let dir = std::env::temp_dir().join(format!("aqp_io_v2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.aqpt");
        std::fs::write(&path, &v2).unwrap();
        assert!(matches!(
            read_table_file(&path),
            Err(StorageError::Version { found: 2, .. })
        ));
        assert!(path.exists(), "a version mismatch is not quarantined");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_zone_section_flip_degrades_to_recompute() {
        // Flipping any byte at or past the zone section boundary must
        // never fail the load and never attach wrong maps: either the
        // maps survive bit-identical (impossible for CRC32C under a
        // single-bit error, but allowed) or they are dropped.
        let t = sample_table();
        let good = encode_table(&t).unwrap();
        let computed = t.zone_maps().clone();
        for pos in core_end(&good)..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 1;
            let back = decode_table(&bad)
                .unwrap_or_else(|e| panic!("zone flip at {pos} failed the load: {e}"));
            assert_tables_equal(&t, &back);
            if let Some(maps) = back.zone_maps_if_present() {
                assert_eq!(**maps, *computed, "flip at {pos} attached wrong maps");
            }
        }
    }

    #[test]
    fn tables_decoded_together_share_one_dictionary_per_column() {
        // Two row subsets of one table, as a sample family holds them: the
        // second uses "stereo", which the first does not.
        let t = sample_table();
        let (a, b) = (t.gather("a", &[0, 3]), t.gather("b", &[1, 2, 0]));
        let mut decoder = TableDecoder::default();
        decoder.decode(&encode_table(&a).unwrap()).unwrap();
        decoder.decode(&encode_table(&b).unwrap()).unwrap();
        let back = decoder.finish();
        assert_tables_equal(&a, &back[0]);
        assert_tables_equal(&b, &back[1]);
        fn dict(t: &Table) -> &Dictionary {
            t.column_by_name("name").unwrap().as_utf8().unwrap().1
        }
        assert!(std::ptr::eq(dict(&back[0]), dict(&back[1])));
        assert_eq!(dict(&back[0]).len(), 2);
        for t in &back {
            let persisted = t.zone_maps_if_present().expect("translated, not dropped");
            assert_eq!(**persisted, ZoneMaps::compute(t), "{}", t.name());
        }
        // Each file still holds only its own rows' entries.
        assert_eq!(encode_table(&back[0]).unwrap(), encode_table(&a).unwrap());
        assert_eq!(encode_table(&back[1]).unwrap(), encode_table(&b).unwrap());
    }

    #[test]
    fn a_file_dictionary_spelling_one_string_twice_decodes_to_one_code() {
        // A hand-built core whose dictionary is ["x", "y", "x"], its rows
        // using file codes 0, 2 and 1: rows 0 and 1 both hold "x".
        let mut core = Vec::new();
        put_str(&mut core, "dup").unwrap();
        core.put_u32_le(1);
        put_str(&mut core, "s").unwrap();
        core.put_u8(type_tag(DataType::Utf8));
        core.put_u64_le(3);
        core.put_u8(type_tag(DataType::Utf8));
        core.put_u8(0); // no null mask
        core.put_u32_le(3);
        for s in ["x", "y", "x"] {
            put_str(&mut core, s).unwrap();
        }
        put_le(&mut core, &[0u32, 2, 1], u32::to_le_bytes);
        core.put_u8(0); // no bitmask
        let mut file = Vec::new();
        file.put_slice(MAGIC);
        file.put_u16_le(VERSION);
        file.put_u32_le(crc32c(&core));
        file.put_u64_le(core.len() as u64);
        file.extend_from_slice(&core);

        let check = |t: &Table| {
            let (codes, dict) = t.column(0).as_utf8().unwrap();
            assert_eq!(codes.get(0), codes.get(1), "both spellings of \"x\"");
            assert_ne!(codes.get(0), codes.get(2));
            assert_eq!(dict.len(), 2);
            let values: Vec<Value> = (0..3).map(|r| t.value(r, 0).to_owned()).collect();
            assert_eq!(values, ["x", "x", "y"].map(Value::from));
        };
        check(&decode_table(&file).unwrap());

        // Loaded after a table that interned "y" first, onto its dictionary.
        let schema = SchemaBuilder::new().field("s", DataType::Utf8).build().unwrap();
        let mut first = Table::empty("first", schema);
        first.push_row(&["y".into()]).unwrap();
        first.push_row(&["x".into()]).unwrap();
        let mut decoder = TableDecoder::default();
        decoder.decode(&encode_table(&first).unwrap()).unwrap();
        decoder.decode(&file).unwrap();
        let back = decoder.finish();
        assert_tables_equal(&first, &back[0]);
        check(&back[1]);
        let dict = |t: &Table| t.column(0).as_utf8().unwrap().1 as *const Dictionary;
        assert_eq!(dict(&back[0]), dict(&back[1]));
    }

    #[test]
    fn a_zone_bit_for_an_entry_no_row_uses_is_dropped_on_write() {
        // Persisted maps may mark an entry no row of the block holds: a
        // looser summary, still correct, but the file has no code for it.
        // The table on a dictionary with an unused "ghost" in front, its
        // maps marking the ghost too, writes the bytes the table does.
        let t = sample_table();
        let Column::Utf8 { codes, dict, nulls } = t.column(2) else {
            panic!("a string column")
        };
        let mut ghost = Dictionary::new();
        for s in std::iter::once("ghost").chain(dict.iter().map(|(_, s)| s)) {
            ghost.intern(s);
        }
        let shifted = (0..codes.len()).map(|r| codes.get(r) + 1).collect();
        let mut columns = t.columns().to_vec();
        columns[2] = Column::Utf8 {
            codes: crate::Codes::U32(shifted).fit(ghost.len()),
            dict: Arc::new(ghost),
            nulls: nulls.clone(),
        };
        let mut maps = (**t.zone_maps()).clone();
        let Some(BlockBounds::Dict { words }) = &mut maps.columns[2].blocks[0].bounds else {
            panic!("a dictionary bitmap")
        };
        words[0] = words[0] << 1 | 1;
        let mut ghosted = Table::from_columns(t.name(), Arc::clone(t.schema()), columns).unwrap();
        ghosted.set_zone_maps(Arc::new(maps)).unwrap();
        assert_eq!(encode_table(&ghosted).unwrap(), encode_table(&t).unwrap());
    }

    #[test]
    fn file_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join(format!("aqp_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.aqpt");
        write_table_file(&t, &path).unwrap();
        let back = read_table_file(&path).unwrap();
        assert_tables_equal(&t, &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_quarantined() {
        let t = sample_table();
        let dir = std::env::temp_dir().join(format!("aqp_io_quarantine_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.aqpt");
        write_table_file(&t, &path).unwrap();

        // Corrupt the file on disk (inside the protected core region, not
        // the degradable zone section), then load: checksum + quarantine.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + 8 + 4;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_table_file(&path),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        assert!(!path.exists(), "corrupt file moved aside");
        assert!(dir.join("demo.aqpt.corrupt").exists());

        // A missing file is an Io error naming the path.
        match read_table_file(&path) {
            Err(StorageError::Io(msg)) => assert!(msg.contains("demo.aqpt")),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_are_detected_and_atomicity_holds() {
        let t = sample_table();
        let dir = std::env::temp_dir().join(format!("aqp_io_fault_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inj.aqpt");
        write_table_file(&t, &path).unwrap();

        {
            let _g = fault::install(
                fault::FaultPlan::new(fault::Fault::BitFlip(40)).for_paths("inj.aqpt"),
            );
            assert!(
                matches!(read_table_file(&path), Err(StorageError::ChecksumMismatch { .. })),
                "read-side bit flip detected"
            );
        }
        // Read-side corruption quarantined the (actually intact) file;
        // restore it for the write test.
        std::fs::rename(dir.join("inj.aqpt.corrupt"), &path).unwrap();

        {
            let _g = fault::install(
                fault::FaultPlan::new(fault::Fault::WriteErr { nth: 0 }).for_paths("inj.aqpt"),
            );
            let schema =
                SchemaBuilder::new().field("z", DataType::Int64).build().unwrap();
            let other = Table::empty("other", schema);
            assert!(matches!(
                write_table_file(&other, &path),
                Err(StorageError::Io(_))
            ));
        }
        // Torn write never reached the destination: old table still loads.
        let back = read_table_file(&path).unwrap();
        assert_tables_equal(&t, &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn value_codec_roundtrip() {
        let values = [
            Value::Null,
            Value::Int64(-42),
            Value::Float64(2.5),
            Value::Float64(f64::NAN),
            Value::Utf8("héllo".into()),
            Value::Bool(true),
        ];
        let mut buf = BytesMut::new();
        for v in &values {
            put_value(&mut buf, v).unwrap();
        }
        let bytes = buf.to_vec();
        let mut slice = bytes.as_slice();
        for v in &values {
            let back = get_value(&mut slice).unwrap();
            assert_eq!(&back, v);
        }
        assert!(!slice.has_remaining());
        // Truncations error.
        for len in 0..bytes.len() {
            let mut s = &bytes[..len];
            let mut ok = true;
            for _ in 0..values.len() {
                if get_value(&mut s).is_err() {
                    ok = false;
                    break;
                }
            }
            assert!(!ok, "prefix {len} decoded fully");
        }
    }

    #[test]
    fn negative_zero_preserved() {
        // -0.0 and 0.0 differ bitwise and must survive the roundtrip
        // (group keys distinguish them).
        let t = sample_table();
        let back = decode_table(&encode_table(&t).unwrap()).unwrap();
        let col = back.column_by_name("price").unwrap();
        let v = col.as_float64().unwrap()[3];
        assert!(v == 0.0 && v.is_sign_negative());
    }
}

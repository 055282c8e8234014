//! Sample-family persistence.
//!
//! The dynamic-sample-selection architecture builds its sample family once
//! during an offline pre-processing phase and uses it across many runtime
//! sessions ("the samples are created ... and stored in the database along
//! with metadata that identifies the characteristics of each sample" —
//! paper Section 3.1). This module serialises a complete
//! [`SmallGroupSampler`] — every small group table with its bitmasks, the
//! overall sample strata with their weights, the `L(C)` common-value sets,
//! the configuration, and the catalog — into one self-describing binary
//! file, so preprocessing cost is paid once per database.
//!
//! # v3 on-disk layout
//!
//! ```text
//! "AQPS" | u16 version=3 | u32 file_crc32c          (header, 10 bytes)
//! u64 meta_len | u32 meta_crc32c | meta bytes        (metadata section)
//! per table block: u64 len | AQPT-v3 bytes           (entry tables, then
//!                                                     overall part tables)
//! ```
//!
//! Each table block stores only the dictionary entries its own rows use
//! ([`aqp_storage::io`]). Loading interns every block of one family into
//! one dictionary per column ([`TableDecoder`]), so a loaded family's
//! tables share their codes, as the built family's — all gathered from
//! one view — did.
//!
//! `file_crc` covers everything after the header. The metadata section
//! (config, common-value sets, part weights, catalog) carries its own CRC,
//! and every table block is a self-checksummed `AQPT` v3 blob. This
//! segregation is what makes *salvage* possible: when only a small group
//! table's block is corrupt, [`decode_sampler_salvage`] can still recover a
//! working sampler with that one unit disabled (its slot — and therefore
//! every bitmask bit index — is preserved; the overall sample serves its
//! rows). A corrupt metadata section or overall-sample block is
//! unrecoverable and yields [`AqpError::Corrupt`].

use crate::catalog::{SampleCatalog, SampleColumnMeta};
use crate::error::{AqpError, AqpResult};
use crate::smallgroup::{
    CommonValues, OverallKind, OverallPart, SgEntry, SgUnit, SmallGroupConfig,
    SmallGroupSampler,
};
use aqp_storage::io::{encode_table, get_string, get_value, put_string, put_value, TableDecoder};
use aqp_storage::{crc32c, fault, Table, Value};
use bytes::{Buf, BufMut, BytesMut};
use std::collections::{HashMap, HashSet};

const MAGIC: &[u8; 4] = b"AQPS";
// v3: checksummed header + segregated metadata section + self-checksummed
// table blocks (salvageable). v2 and older files are rejected with a clean
// version error telling the user how to migrate.
const VERSION: u16 = 3;
const HEADER_LEN: usize = 10;

fn corrupt(msg: impl Into<String>) -> AqpError {
    AqpError::Corrupt(msg.into())
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u64_le(bytes.len() as u64);
    buf.put_slice(bytes);
}

fn get_bytes<'a>(buf: &mut &'a [u8]) -> AqpResult<&'a [u8]> {
    if buf.remaining() < 8 {
        return Err(corrupt("truncated byte-block length"));
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() < len {
        return Err(corrupt("truncated byte block"));
    }
    let (head, tail) = buf.split_at(len);
    *buf = tail;
    Ok(head)
}

fn put_string_list(buf: &mut BytesMut, list: &[String]) -> AqpResult<()> {
    buf.put_u32_le(list.len() as u32);
    for s in list {
        put_string(buf, s).map_err(AqpError::from)?;
    }
    Ok(())
}

fn get_string_list(buf: &mut &[u8]) -> AqpResult<Vec<String>> {
    if buf.remaining() < 4 {
        return Err(corrupt("truncated string list"));
    }
    let n = buf.get_u32_le() as usize;
    // Cap the pre-allocation: a corrupt count must produce a clean decode
    // error when the elements run out, never an allocation failure.
    let mut out = Vec::with_capacity(n.min(buf.remaining()));
    for _ in 0..n {
        out.push(get_string(buf).map_err(AqpError::from)?);
    }
    Ok(out)
}

/// Serialise the metadata section payload (everything except the tables).
fn encode_meta(sampler: &SmallGroupSampler) -> AqpResult<Vec<u8>> {
    let mut buf = BytesMut::new();

    // --- Config ---
    let cfg = &sampler.config;
    buf.put_f64_le(cfg.base_rate);
    buf.put_f64_le(cfg.small_group_fraction);
    buf.put_u64_le(cfg.tau as u64);
    buf.put_u64_le(cfg.seed);
    match &cfg.overall {
        OverallKind::Uniform => buf.put_u8(0),
        OverallKind::OutlierIndexed { column } => {
            buf.put_u8(1);
            put_string(&mut buf, column).map_err(AqpError::from)?;
        }
    }
    match &cfg.restrict_columns {
        None => buf.put_u8(0),
        Some(cols) => {
            buf.put_u8(1);
            put_string_list(&mut buf, cols)?;
        }
    }
    put_string_list(&mut buf, &cfg.exclude_columns)?;
    buf.put_u32_le(cfg.column_pairs.len() as u32);
    for (a, b) in &cfg.column_pairs {
        put_string(&mut buf, a).map_err(AqpError::from)?;
        put_string(&mut buf, b).map_err(AqpError::from)?;
    }
    match cfg.max_tables_per_query {
        None => buf.put_u8(0),
        Some(cap) => {
            buf.put_u8(1);
            buf.put_u64_le(cap as u64);
        }
    }
    buf.put_u64_le(cfg.preprocess_threads as u64);

    buf.put_u64_le(sampler.view_rows as u64);
    buf.put_f64_le(sampler.overall_rate);

    // --- Entry metadata (units + common-value sets) ---
    buf.put_u32_le(sampler.entries.len() as u32);
    for entry in &sampler.entries {
        match &entry.unit {
            SgUnit::Single(c) => {
                buf.put_u8(0);
                put_string(&mut buf, c).map_err(AqpError::from)?;
            }
            SgUnit::Pair(a, b) => {
                buf.put_u8(1);
                put_string(&mut buf, a).map_err(AqpError::from)?;
                put_string(&mut buf, b).map_err(AqpError::from)?;
            }
        }
        match &entry.common {
            CommonValues::Single(set) => {
                buf.put_u8(0);
                let mut values: Vec<&Value> = set.iter().collect();
                values.sort(); // determinism
                buf.put_u64_le(values.len() as u64);
                for v in values {
                    put_value(&mut buf, v).map_err(AqpError::from)?;
                }
            }
            CommonValues::Pair(pairs) => {
                buf.put_u8(1);
                let mut values: Vec<(&Value, &Value)> = pairs
                    .iter()
                    .flat_map(|(a, seconds)| seconds.iter().map(move |b| (a, b)))
                    .collect();
                values.sort();
                buf.put_u64_le(values.len() as u64);
                for (a, b) in values {
                    put_value(&mut buf, a).map_err(AqpError::from)?;
                    put_value(&mut buf, b).map_err(AqpError::from)?;
                }
            }
        }
    }

    // --- Overall part weights ---
    buf.put_u32_le(sampler.overall.len() as u32);
    for part in &sampler.overall {
        buf.put_f64_le(part.weight);
    }

    // --- Catalog ---
    let cat = &sampler.catalog;
    buf.put_u64_le(cat.view_rows as u64);
    buf.put_u32_le(cat.columns.len() as u32);
    for c in &cat.columns {
        put_string(&mut buf, &c.name).map_err(AqpError::from)?;
        buf.put_u64_le(c.index as u64);
        buf.put_u64_le(c.num_common as u64);
        buf.put_u64_le(c.rows as u64);
    }
    put_string_list(&mut buf, &cat.dropped_tau)?;
    put_string_list(&mut buf, &cat.dropped_no_small_groups)?;
    buf.put_u64_le(cat.overall_rows as u64);
    buf.put_f64_le(cat.overall_rate);
    buf.put_u64_le(cat.total_bytes as u64);

    Ok(buf.to_vec())
}

/// Everything the metadata section describes, minus the tables themselves.
struct Meta {
    config: SmallGroupConfig,
    view_rows: usize,
    overall_rate: f64,
    units: Vec<(SgUnit, CommonValues)>,
    part_weights: Vec<f64>,
    catalog: SampleCatalog,
}

fn decode_meta(meta: &[u8]) -> AqpResult<Meta> {
    let mut buf = meta;

    // --- Config ---
    if buf.remaining() < 8 * 4 + 1 {
        return Err(corrupt("truncated config"));
    }
    let base_rate = buf.get_f64_le();
    let small_group_fraction = buf.get_f64_le();
    let tau = buf.get_u64_le() as usize;
    let seed = buf.get_u64_le();
    let overall_kind = match buf.get_u8() {
        0 => OverallKind::Uniform,
        1 => OverallKind::OutlierIndexed {
            column: get_string(&mut buf).map_err(AqpError::from)?,
        },
        other => return Err(corrupt(format!("unknown overall kind {other}"))),
    };
    if buf.remaining() < 1 {
        return Err(corrupt("truncated restrict flag"));
    }
    let restrict_columns = match buf.get_u8() {
        0 => None,
        _ => Some(get_string_list(&mut buf)?),
    };
    let exclude_columns = get_string_list(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(corrupt("truncated pairs"));
    }
    let n_pairs = buf.get_u32_le() as usize;
    let mut column_pairs = Vec::with_capacity(n_pairs.min(buf.remaining()));
    for _ in 0..n_pairs {
        let a = get_string(&mut buf).map_err(AqpError::from)?;
        let b = get_string(&mut buf).map_err(AqpError::from)?;
        column_pairs.push((a, b));
    }
    if buf.remaining() < 1 {
        return Err(corrupt("truncated table cap"));
    }
    let max_tables_per_query = match buf.get_u8() {
        0 => None,
        _ => {
            if buf.remaining() < 8 {
                return Err(corrupt("truncated table cap value"));
            }
            Some(buf.get_u64_le() as usize)
        }
    };
    if buf.remaining() < 8 {
        return Err(corrupt("truncated preprocess threads"));
    }
    let preprocess_threads = buf.get_u64_le() as usize;
    let config = SmallGroupConfig {
        base_rate,
        small_group_fraction,
        tau,
        seed,
        overall: overall_kind,
        restrict_columns,
        exclude_columns,
        column_pairs,
        max_tables_per_query,
        preprocess_threads,
    };

    if buf.remaining() < 16 {
        return Err(corrupt("truncated sampler header"));
    }
    let view_rows = buf.get_u64_le() as usize;
    let overall_rate = buf.get_f64_le();

    // --- Entry metadata ---
    if buf.remaining() < 4 {
        return Err(corrupt("truncated entries"));
    }
    let n_entries = buf.get_u32_le() as usize;
    let mut units = Vec::with_capacity(n_entries.min(buf.remaining()));
    for _ in 0..n_entries {
        if buf.remaining() < 1 {
            return Err(corrupt("truncated unit tag"));
        }
        let unit = match buf.get_u8() {
            0 => SgUnit::Single(get_string(&mut buf).map_err(AqpError::from)?),
            1 => {
                let a = get_string(&mut buf).map_err(AqpError::from)?;
                let b = get_string(&mut buf).map_err(AqpError::from)?;
                SgUnit::Pair(a, b)
            }
            other => return Err(corrupt(format!("unknown unit tag {other}"))),
        };
        if buf.remaining() < 1 + 8 {
            return Err(corrupt("truncated common values"));
        }
        let common = match buf.get_u8() {
            0 => {
                let n = buf.get_u64_le() as usize;
                let mut set = HashSet::with_capacity(n.min(buf.remaining()));
                for _ in 0..n {
                    set.insert(get_value(&mut buf).map_err(AqpError::from)?);
                }
                CommonValues::Single(set)
            }
            1 => {
                let n = buf.get_u64_le() as usize;
                let mut pairs: HashMap<Value, HashSet<Value>> = HashMap::new();
                for _ in 0..n {
                    let a = get_value(&mut buf).map_err(AqpError::from)?;
                    let b = get_value(&mut buf).map_err(AqpError::from)?;
                    pairs.entry(a).or_default().insert(b);
                }
                CommonValues::Pair(pairs)
            }
            other => return Err(corrupt(format!("unknown common tag {other}"))),
        };
        units.push((unit, common));
    }

    // --- Overall part weights ---
    if buf.remaining() < 4 {
        return Err(corrupt("truncated overall parts"));
    }
    let n_parts = buf.get_u32_le() as usize;
    if buf.remaining() < n_parts.saturating_mul(8) {
        return Err(corrupt("truncated part weights"));
    }
    let part_weights: Vec<f64> = (0..n_parts).map(|_| buf.get_f64_le()).collect();

    // --- Catalog ---
    if buf.remaining() < 12 {
        return Err(corrupt("truncated catalog"));
    }
    let cat_view_rows = buf.get_u64_le() as usize;
    let n_cols = buf.get_u32_le() as usize;
    let mut columns = Vec::with_capacity(n_cols.min(buf.remaining()));
    for _ in 0..n_cols {
        let name = get_string(&mut buf).map_err(AqpError::from)?;
        if buf.remaining() < 24 {
            return Err(corrupt("truncated catalog column"));
        }
        columns.push(SampleColumnMeta {
            name,
            index: buf.get_u64_le() as usize,
            num_common: buf.get_u64_le() as usize,
            rows: buf.get_u64_le() as usize,
        });
    }
    let dropped_tau = get_string_list(&mut buf)?;
    let dropped_no_small_groups = get_string_list(&mut buf)?;
    if buf.remaining() < 24 {
        return Err(corrupt("truncated catalog tail"));
    }
    let catalog = SampleCatalog {
        view_rows: cat_view_rows,
        columns,
        dropped_tau,
        dropped_no_small_groups,
        overall_rows: buf.get_u64_le() as usize,
        overall_rate: buf.get_f64_le(),
        total_bytes: buf.get_u64_le() as usize,
    };

    if buf.has_remaining() {
        return Err(corrupt(format!("{} trailing metadata bytes", buf.remaining())));
    }

    Ok(Meta {
        config,
        view_rows,
        overall_rate,
        units,
        part_weights,
        catalog,
    })
}

/// Serialise a sampler to bytes.
pub fn encode_sampler(sampler: &SmallGroupSampler) -> AqpResult<Vec<u8>> {
    let meta = encode_meta(sampler)?;

    let mut body = Vec::new();
    body.put_u64_le(meta.len() as u64);
    body.put_u32_le(crc32c(&meta));
    body.put_slice(&meta);
    for entry in &sampler.entries {
        put_bytes(&mut body, &encode_table(&entry.table).map_err(AqpError::from)?);
    }
    for part in &sampler.overall {
        put_bytes(&mut body, &encode_table(&part.table).map_err(AqpError::from)?);
    }

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    out.put_u32_le(crc32c(&body));
    out.extend_from_slice(&body);
    Ok(out)
}

/// Validate the header; on success return the body (post-header bytes) and
/// the recorded file checksum.
fn check_header(bytes: &[u8]) -> AqpResult<(&[u8], u32)> {
    let mut buf = bytes;
    if buf.remaining() < HEADER_LEN || &buf[..4] != MAGIC {
        return Err(corrupt("bad sampler magic or truncated header"));
    }
    buf.advance(4);
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(corrupt(format!(
            "file is AQPS format v{version}, but this build reads v{VERSION}; \
             re-run preprocessing with this build to regenerate the sample family"
        )));
    }
    let file_crc = buf.get_u32_le();
    Ok((buf, file_crc))
}

/// Assemble a sampler from decoded metadata plus per-slot tables.
/// `tables[i] = None` means slot `i`'s table was corrupt (salvage mode);
/// the slot is kept with an empty placeholder and marked disabled.
fn assemble(meta: Meta, tables: Vec<Option<Table>>, parts: Vec<Table>) -> SmallGroupSampler {
    let mut disabled = HashSet::new();
    let entries: Vec<SgEntry> = meta
        .units
        .into_iter()
        .zip(tables)
        .enumerate()
        .map(|(i, ((unit, common), table))| {
            let table = table.unwrap_or_else(|| {
                disabled.insert(i);
                let schema = aqp_storage::Schema::new(Vec::new()).expect("empty schema");
                Table::empty(format!("sg_{} (unavailable)", unit.name()), schema)
            });
            SgEntry { unit, table, common }
        })
        .collect();
    let overall: Vec<OverallPart> = parts
        .into_iter()
        .zip(meta.part_weights)
        .map(|(table, weight)| OverallPart { table, weight })
        .collect();
    SmallGroupSampler {
        config: meta.config,
        view_rows: meta.view_rows,
        entries,
        overall,
        overall_rate: meta.overall_rate,
        catalog: meta.catalog,
        disabled,
        runtime_threads: 1,
    }
}

/// Split the body into (metadata section, table blocks) and verify the
/// metadata CRC.
fn split_body<'a>(body: &mut &'a [u8]) -> AqpResult<&'a [u8]> {
    if body.remaining() < 12 {
        return Err(corrupt("truncated metadata header"));
    }
    let meta_len = body.get_u64_le() as usize;
    let meta_crc = body.get_u32_le();
    if body.remaining() < meta_len {
        return Err(corrupt("truncated metadata section"));
    }
    let (meta, rest) = body.split_at(meta_len);
    *body = rest;
    let actual = crc32c(meta);
    if actual != meta_crc {
        return Err(corrupt(format!(
            "metadata checksum mismatch (header says {meta_crc:#010x}, \
             payload hashes to {actual:#010x})"
        )));
    }
    Ok(meta)
}

/// Deserialise a sampler from bytes produced by [`encode_sampler`],
/// rejecting any corruption outright.
pub fn decode_sampler(bytes: &[u8]) -> AqpResult<SmallGroupSampler> {
    let (mut body, file_crc) = check_header(bytes)?;
    let actual = crc32c(body);
    if actual != file_crc {
        return Err(corrupt(format!(
            "file checksum mismatch (header says {file_crc:#010x}, \
             payload hashes to {actual:#010x})"
        )));
    }
    let meta = decode_meta(split_body(&mut body)?)?;
    let sampler = decode_tables(meta, &mut body, |unit, e| {
        Err(corrupt(format!("small group table {unit:?}: {e}")))
    })?;
    if body.has_remaining() {
        return Err(corrupt(format!("{} trailing bytes", body.remaining())));
    }
    Ok(sampler)
}

/// Best-effort deserialisation: recover as much of the sampler as the
/// checksums can vouch for.
///
/// The metadata section and every overall-sample block must be intact
/// (without them no sound answer can be formed). A small group table whose
/// block fails its own checksum is *disabled* instead of failing the load:
/// its slot is preserved (bitmask bit indices stay valid) and the overall
/// sample serves its rows. Returns the sampler plus the names of the
/// disabled units (empty = fully intact).
pub fn decode_sampler_salvage(bytes: &[u8]) -> AqpResult<(SmallGroupSampler, Vec<String>)> {
    // Deliberately skip the whole-file CRC: salvage exists precisely for
    // files where it no longer matches.
    let (mut body, _file_crc) = check_header(bytes)?;
    let meta = decode_meta(split_body(&mut body)?)?;
    let mut lost = Vec::new();
    let sampler = decode_tables(meta, &mut body, |unit, _| {
        lost.push(unit);
        Ok(())
    })?;
    Ok((sampler, lost))
}

/// Decode the family's table blocks — one per unit, then one per overall
/// part — onto one dictionary per column ([`TableDecoder`]), so that the
/// loaded tables share their codes as the built ones did. A unit whose
/// block does not decode goes to `on_lost` with its error: an `Err` from
/// it fails the load there, an `Ok` disables the unit's slot. An overall
/// part that does not decode fails the load.
fn decode_tables(
    meta: Meta,
    body: &mut &[u8],
    mut on_lost: impl FnMut(String, AqpError) -> AqpResult<()>,
) -> AqpResult<SmallGroupSampler> {
    let mut decoder = TableDecoder::default();
    let mut decoded = Vec::with_capacity(meta.units.len());
    for (unit, _) in &meta.units {
        let result = get_bytes(body).and_then(|b| decoder.decode(b).map_err(AqpError::from));
        decoded.push(result.is_ok());
        if let Err(e) = result {
            on_lost(unit.name(), e)?;
        }
    }
    for _ in 0..meta.part_weights.len() {
        get_bytes(body)
            .and_then(|b| decoder.decode(b).map_err(AqpError::from))
            .map_err(|e| corrupt(format!("overall sample unrecoverable: {e}")))?;
    }
    let mut tables = decoder.finish().into_iter();
    let entries: Vec<Option<Table>> = (decoded.into_iter())
        .map(|ok| ok.then(|| tables.next().expect("one table per decoded block")))
        .collect();
    Ok(assemble(meta, entries, tables.collect()))
}

impl SmallGroupSampler {
    /// Persist the whole sample family to a file. The write goes to a
    /// temporary file first and is renamed into place, so a crash mid-write
    /// never leaves a half-written family at `path`.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> AqpResult<()> {
        let path = path.as_ref();
        let bytes = encode_sampler(self)?;
        fault::write_file_atomic(path, &bytes)
            .map_err(|e| AqpError::Io(format!("{}: {e}", path.display())))
    }

    /// Load a sample family previously written by [`Self::save`],
    /// rejecting corrupt files. A file that fails its checksums is
    /// quarantined (renamed to `<path>.corrupt`) so repeated loads fail
    /// fast with a missing-file error instead of re-parsing garbage;
    /// unreadable-version files are left in place for migration.
    pub fn load(path: impl AsRef<std::path::Path>) -> AqpResult<Self> {
        let path = path.as_ref();
        let bytes = fault::read_file(path)
            .map_err(|e| AqpError::Io(format!("{}: {e}", path.display())))?;
        match decode_sampler(&bytes) {
            Ok(sampler) => Ok(sampler),
            Err(e) => {
                let is_version = matches!(
                    &e,
                    AqpError::Corrupt(msg) if msg.contains("this build reads")
                );
                if !is_version {
                    let _ = fault::quarantine(path);
                }
                Err(e)
            }
        }
    }

    /// Load with salvage: recover a degraded-but-sound sampler from a
    /// partially corrupt file (see [`decode_sampler_salvage`]). The file is
    /// never quarantined — the caller decides what to do with it. Returns
    /// the sampler and the names of any disabled units.
    pub fn load_salvage(path: impl AsRef<std::path::Path>) -> AqpResult<(Self, Vec<String>)> {
        let path = path.as_ref();
        let bytes = fault::read_file(path)
            .map_err(|e| AqpError::Io(format!("{}: {e}", path.display())))?;
        decode_sampler_salvage(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AqpSystem;
    use aqp_storage::{DataType, SchemaBuilder};
    use aqp_query::Query;

    fn view() -> Table {
        let schema = SchemaBuilder::new()
            .field("g", DataType::Utf8)
            .field("h", DataType::Utf8)
            .field("x", DataType::Float64)
            .build()
            .unwrap();
        let mut t = Table::empty("v", schema);
        for i in 0..400 {
            let g = if i % 40 == 0 { format!("rare{}", i / 40) } else { "common".into() };
            t.push_row(&[g.into(), format!("h{}", i % 3).into(), (i as f64).into()])
                .unwrap();
        }
        t
    }

    fn build() -> SmallGroupSampler {
        SmallGroupSampler::build(
            &view(),
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.05,
                seed: 3,
                column_pairs: vec![("g".into(), "h".into())],
                exclude_columns: vec!["x".into()],
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_answers() {
        let sampler = build();
        let bytes = encode_sampler(&sampler).unwrap();
        let back = decode_sampler(&bytes).unwrap();

        assert_eq!(back.config(), sampler.config());
        assert_eq!(back.catalog(), sampler.catalog());
        assert_eq!(back.sample_columns(), sampler.sample_columns());
        assert_eq!(back.view_rows(), sampler.view_rows());
        assert!((back.overall_rate() - sampler.overall_rate()).abs() < 1e-15);
        assert!(back.disabled_units().is_empty());

        // Identical answers on several queries.
        for q in [
            Query::builder().count().group_by("g").build().unwrap(),
            Query::builder().count().sum("x").group_by("g").group_by("h").build().unwrap(),
            Query::builder().count().build().unwrap(),
        ] {
            let mut a = sampler.answer(&q, 0.95).unwrap();
            let mut b = back.answer(&q, 0.95).unwrap();
            a.sort_by_key();
            b.sort_by_key();
            assert_eq!(a.num_groups(), b.num_groups());
            for (x, y) in a.groups.iter().zip(&b.groups) {
                assert_eq!(x.key, y.key);
                for (vx, vy) in x.values.iter().zip(&y.values) {
                    assert_eq!(vx.value(), vy.value());
                    assert_eq!(vx.is_exact(), vy.is_exact());
                }
            }
        }
    }

    #[test]
    fn roundtrip_outlier_enhanced() {
        let sampler = SmallGroupSampler::build(
            &view(),
            SmallGroupConfig {
                base_rate: 0.1,
                small_group_fraction: 0.05,
                overall: OverallKind::OutlierIndexed { column: "x".into() },
                ..Default::default()
            },
        )
        .unwrap();
        let back = decode_sampler(&encode_sampler(&sampler).unwrap()).unwrap();
        assert_eq!(back.name(), "SmGroup+Outlier");
        let q = Query::builder().sum("x").group_by("g").build().unwrap();
        let a = sampler.answer(&q, 0.95).unwrap();
        let b = back.answer(&q, 0.95).unwrap();
        assert_eq!(a.num_groups(), b.num_groups());
    }

    #[test]
    fn corruption_detected_never_panics() {
        let bytes = encode_sampler(&build()).unwrap();
        for len in 0..bytes.len().min(600) {
            assert!(decode_sampler(&bytes[..len]).is_err(), "prefix {len}");
        }
        // Also truncations around the table blocks.
        for len in (bytes.len() - 200)..bytes.len() {
            assert!(decode_sampler(&bytes[..len]).is_err(), "prefix {len}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_sampler(&bad).is_err());
        let mut bad = bytes.clone();
        bad.push(7);
        assert!(decode_sampler(&bad).is_err());
        // Any single byte flip past the header is caught by the file CRC.
        for pos in [HEADER_LEN, HEADER_LEN + 13, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode_sampler(&bad), Err(AqpError::Corrupt(_))),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn version_error_is_actionable() {
        let mut bytes = encode_sampler(&build()).unwrap();
        bytes[4] = 2;
        bytes[5] = 0;
        match decode_sampler(&bytes) {
            Err(AqpError::Corrupt(msg)) => {
                assert!(msg.contains("v2"), "{msg}");
                assert!(msg.contains(&format!("v{VERSION}")), "{msg}");
                assert!(msg.contains("re-run preprocessing"), "{msg}");
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    /// Flip a byte inside the Nth embedded AQPT table block's payload.
    fn corrupt_table_block(bytes: &mut [u8], nth: usize) {
        let mut found = 0;
        let mut i = HEADER_LEN;
        while i + 4 <= bytes.len() {
            if &bytes[i..i + 4] == b"AQPT" {
                if found == nth {
                    // Flip a byte safely inside the block's payload.
                    bytes[i + 16] ^= 0x20;
                    return;
                }
                found += 1;
                i += 4;
            } else {
                i += 1;
            }
        }
        panic!("table block {nth} not found");
    }

    #[test]
    fn salvage_disables_corrupt_small_group_table() {
        let sampler = build();
        let mut bytes = encode_sampler(&sampler).unwrap();
        // Block 0 is the first entry's table.
        corrupt_table_block(&mut bytes, 0);

        // Strict decode refuses the file outright.
        assert!(matches!(decode_sampler(&bytes), Err(AqpError::Corrupt(_))));

        // Salvage recovers everything else.
        let (back, lost) = decode_sampler_salvage(&bytes).unwrap();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0], sampler.sample_columns()[0]);
        assert_eq!(back.disabled_units(), lost);
        // Entry count (and thus bitmask indexing) is preserved.
        assert_eq!(back.sample_columns(), sampler.sample_columns());

        // With the file checksum patched over the flip, strict decode still
        // refuses, naming the unit and what broke in its block: the flip
        // lands in the block's core length.
        let mut patched = bytes.clone();
        let file_crc = crc32c(&patched[HEADER_LEN..]);
        patched[6..HEADER_LEN].copy_from_slice(&file_crc.to_le_bytes());
        match decode_sampler(&patched) {
            Err(AqpError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("{:?}", lost[0])), "{msg}");
                assert!(msg.contains("truncated core payload"), "{msg}");
            }
            other => panic!("expected a corrupt unit, got {other:?}"),
        }

        // The salvaged sampler still answers; the disabled unit's rows are
        // served by the overall sample, so totals stay in the right range.
        let q = Query::builder().count().group_by("g").build().unwrap();
        assert!(back.query_touches_disabled(&q) || !lost.contains(&"g".to_owned()));
        let ans = back.answer(&q, 0.95).unwrap();
        let total: f64 = ans.groups.iter().map(|g| g.values[0].value()).sum();
        assert!(total > 0.0);
    }

    /// Every string column of every live unit and overall part holds one
    /// dictionary per column.
    fn assert_one_dictionary_per_column(sampler: &SmallGroupSampler) {
        let live = (sampler.entries.iter().enumerate())
            .filter(|(i, _)| !sampler.disabled.contains(i))
            .map(|(_, e)| &e.table)
            .chain(sampler.overall.iter().map(|p| &p.table));
        let mut first: Vec<Option<&aqp_storage::Dictionary>> = Vec::new();
        for table in live {
            first.resize(table.columns().len(), None);
            for (col, first) in table.columns().iter().zip(&mut first) {
                if let Some((_, dict)) = col.as_utf8() {
                    let shared = *first.get_or_insert(dict);
                    assert!(std::ptr::eq(shared, dict), "{}", table.name());
                }
            }
        }
        assert!(
            first.iter().any(Option::is_some),
            "string columns were checked"
        );
    }

    #[test]
    fn loaded_families_share_one_dictionary_per_column() {
        let sampler = build();
        assert_one_dictionary_per_column(&sampler);
        let bytes = encode_sampler(&sampler).unwrap();
        let back = decode_sampler(&bytes).unwrap();
        assert_one_dictionary_per_column(&back);
        assert_eq!(
            encode_sampler(&back).unwrap(),
            bytes,
            "save -> load -> save"
        );

        let mut bad = bytes.clone();
        corrupt_table_block(&mut bad, 0);
        let (salvaged, lost) = decode_sampler_salvage(&bad).unwrap();
        assert_eq!(lost.len(), 1);
        assert_one_dictionary_per_column(&salvaged);
    }

    #[test]
    fn salvage_rejects_corrupt_meta_or_overall() {
        let sampler = build();
        let good = encode_sampler(&sampler).unwrap();

        // Corrupt the metadata section (just past its 12-byte framing).
        let mut bad = good.clone();
        bad[HEADER_LEN + 12 + 4] ^= 0x08;
        assert!(matches!(
            decode_sampler_salvage(&bad),
            Err(AqpError::Corrupt(_))
        ));

        // Corrupt the overall sample (last table block): unrecoverable.
        let n_blocks = sampler.entries.len() + sampler.overall.len();
        let mut bad = good.clone();
        corrupt_table_block(&mut bad, n_blocks - 1);
        match decode_sampler_salvage(&bad) {
            Err(AqpError::Corrupt(msg)) => {
                assert!(msg.contains("overall sample"), "{msg}")
            }
            other => panic!("expected corrupt overall, got {other:?}"),
        }
    }

    #[test]
    fn file_roundtrip_and_quarantine() {
        let sampler = build();
        let dir = std::env::temp_dir().join(format!("aqp_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("family.aqps");
        sampler.save(&path).unwrap();
        let back = SmallGroupSampler::load(&path).unwrap();
        assert_eq!(back.catalog(), sampler.catalog());

        // Corrupt the file on disk: load fails and quarantines.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(SmallGroupSampler::load(&path), Err(AqpError::Corrupt(_))));
        assert!(!path.exists(), "corrupt family quarantined");
        let quarantined = dir.join("family.aqps.corrupt");
        assert!(quarantined.exists());

        // Salvage can still read the quarantined file (the flipped byte
        // lands in some table block or is fatal — either way, no panic).
        let _ = SmallGroupSampler::load_salvage(&quarantined);

        // Missing file: Io error naming the path, no quarantine side-effects.
        match SmallGroupSampler::load(&path) {
            Err(AqpError::Io(msg)) => assert!(msg.contains("family.aqps")),
            other => panic!("expected Io error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_version_file_not_quarantined() {
        let sampler = build();
        let dir = std::env::temp_dir().join(format!("aqp_persist_v_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("family.aqps");
        sampler.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 2;
        bytes[5] = 0;
        std::fs::write(&path, &bytes).unwrap();
        match SmallGroupSampler::load(&path) {
            Err(AqpError::Corrupt(msg)) => assert!(msg.contains("re-run preprocessing")),
            other => panic!("expected version error, got {other:?}"),
        }
        assert!(path.exists(), "old-version file left in place for migration");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

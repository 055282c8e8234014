//! Corruption-corpus property tests over the two on-disk codecs.
//!
//! The contract: for any `AQPT` table file or `AQPS` family file, any
//! single-byte mutation is either *detected* (a typed error — never a
//! panic) or decodes to a byte-identical artifact. There is no third
//! outcome; a silent misparse is the one thing the CRC discipline must
//! make impossible. Single-bit and single-byte errors are exactly the
//! class CRC32C detects unconditionally, so in practice every mutation
//! below must be rejected.

use aqp::core::persist::{decode_sampler, decode_sampler_salvage, encode_sampler};
use aqp::prelude::*;
use aqp::storage::{decode_table, encode_table, ZoneMaps};
use proptest::prelude::*;

fn small_table(rows: usize, seed: u64) -> Table {
    let schema = SchemaBuilder::new()
        .field("g", DataType::Utf8)
        .field("n", DataType::Int64)
        .field("x", DataType::Float64)
        .build()
        .unwrap();
    let mut t = Table::empty("corpus", schema);
    for i in 0..rows {
        let mix = i as u64 ^ seed.rotate_left(i as u32 % 13);
        t.push_row(&[
            format!("g{}", mix % 7).into(),
            (mix as i64 % 100).into(),
            ((mix % 1000) as f64 / 3.0).into(),
        ])
        .unwrap();
    }
    t
}

fn small_family(rows: usize, seed: u64) -> SmallGroupSampler {
    SmallGroupSampler::build(
        &small_table(rows, seed),
        SmallGroupConfig {
            seed,
            ..SmallGroupConfig::with_rates(0.2, 0.5)
        },
    )
    .unwrap()
}

/// Exhaustive sweep: flip one bit in *every* byte of an encoded table.
/// CRC32C detects all single-bit errors, so every flip in the header or
/// core section must be rejected. The trailing zone-map section is
/// *derived* data under its own CRC: a flip there degrades the load to
/// "no persisted maps" by design, and re-encoding recomputes the maps
/// from the (intact) core — byte-identical to the pristine file. Either
/// way, no flip may silently misparse.
#[test]
fn every_single_bit_flip_in_table_file_is_detected() {
    let bytes = encode_table(&small_table(40, 9)).unwrap();
    // AQPT v3: magic(4) | version(2) | crc(4) | core_len(8) | core | zone.
    let core_len = u64::from_le_bytes(bytes[10..18].try_into().unwrap()) as usize;
    let zone_start = 18 + core_len;
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 1;
        match decode_table(&bad) {
            Err(_) => {}
            Ok(decoded) => {
                assert!(
                    pos >= zone_start,
                    "flip at byte {pos}/{} (core region) went undetected",
                    bytes.len()
                );
                assert_eq!(
                    encode_table(&decoded).unwrap(),
                    bytes,
                    "zone flip at byte {pos} silently misparsed"
                );
            }
        }
    }
}

/// Same sweep over a whole sample-family file: the strict decoder must
/// reject every flip, and the salvage decoder must never panic on one.
#[test]
fn every_single_bit_flip_in_family_file_is_detected() {
    let bytes = encode_sampler(&small_family(120, 3)).unwrap();
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 1;
        assert!(
            decode_sampler(&bad).is_err(),
            "flip at byte {pos}/{} went undetected",
            bytes.len()
        );
        // Salvage may recover (disabling units) or reject — but must not
        // panic or misparse silently into a full-strength family. A flip
        // inside an embedded table's zone section legitimately yields an
        // intact family whose re-encode (maps recomputed from intact
        // cores) is byte-identical to the pristine file.
        if let Ok((salvaged, lost)) = decode_sampler_salvage(&bad) {
            assert!(
                !lost.is_empty()
                    || pos < 10
                    || encode_sampler(&salvaged).unwrap() == bytes,
                "salvage at byte {pos} claimed an intact family from corrupt bytes"
            );
        }
    }
}

/// A table whose dictionary is in another order than its rows use it
/// (here `["b", "a"]`, its first entry used by no row) is written with
/// only `a`, at file code 0, and its zone maps are translated with it: a
/// `DictInSet` query over the loaded table must read every matching row,
/// never skip a block on a bit of the wrong code.
#[test]
fn zone_maps_follow_the_file_dictionary_order() {
    use aqp::storage::{Codes, Column, Dictionary};
    let rows = 3 * 4096 + 5;
    let mut dict = Dictionary::new();
    dict.intern("b");
    let a = dict.intern("a") as u8;
    let schema = SchemaBuilder::new()
        .field("c", DataType::Utf8)
        .build()
        .unwrap();
    let column = Column::Utf8 {
        codes: Codes::U8(vec![a; rows]),
        dict: dict.into(),
        nulls: None,
    };
    let table = Table::from_columns("unordered", schema, vec![column]).unwrap();

    let loaded = decode_table(&encode_table(&table).unwrap()).unwrap();
    let q = Query::builder()
        .count()
        .filter(Expr::in_set("c", vec!["a".into()]))
        .build()
        .unwrap();
    let out = execute(&DataSource::Wide(&loaded), &q, &ExecOptions::default()).unwrap();
    assert_eq!(
        out.groups[0].aggs[0].rows, rows as u64,
        "COUNT(*) WHERE c IN ('a')"
    );
    let persisted = loaded
        .zone_maps_if_present()
        .expect("translated, not dropped");
    assert_eq!(**persisted, ZoneMaps::compute(&loaded));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip: encode → decode → re-encode is byte-identical for
    /// arbitrary table shapes.
    #[test]
    fn table_roundtrip_is_byte_stable(rows in 1usize..80, seed in 0u64..1000) {
        let bytes = encode_table(&small_table(rows, seed)).unwrap();
        let decoded = decode_table(&bytes).unwrap();
        prop_assert_eq!(encode_table(&decoded).unwrap(), bytes);
    }

    /// Arbitrary single-byte mutation (any position, any xor mask) of a
    /// table file: detected or byte-identical — never a silent misparse.
    #[test]
    fn mutated_table_byte_never_misparses(
        rows in 1usize..60,
        seed in 0u64..1000,
        pos_pick in 0usize..100_000,
        mask in 1u32..256,
    ) {
        let bytes = encode_table(&small_table(rows, seed)).unwrap();
        let pos = pos_pick % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= mask as u8;
        match decode_table(&bad) {
            Err(_) => {} // detected
            Ok(decoded) => {
                prop_assert_eq!(
                    encode_table(&decoded).unwrap(),
                    bytes,
                    "mutation at {} (mask {:#04x}) silently misparsed",
                    pos,
                    mask
                );
            }
        }
    }

    /// The same contract for family files, plus salvage never panics.
    #[test]
    fn mutated_family_byte_never_misparses(
        seed in 0u64..200,
        pos_pick in 0usize..1_000_000,
        mask in 1u32..256,
    ) {
        let bytes = encode_sampler(&small_family(100, seed)).unwrap();
        let pos = pos_pick % bytes.len();
        let mut bad = bytes.clone();
        bad[pos] ^= mask as u8;
        match decode_sampler(&bad) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_eq!(
                    encode_sampler(&decoded).unwrap(),
                    bytes,
                    "mutation at {} (mask {:#04x}) silently misparsed",
                    pos,
                    mask
                );
            }
        }
        let _ = decode_sampler_salvage(&bad); // must not panic
    }

    /// Truncation at any length: both decoders reject or recover, and
    /// never panic on short input.
    #[test]
    fn truncated_files_never_panic(seed in 0u64..200, cut_pick in 0usize..1_000_000) {
        let bytes = encode_sampler(&small_family(80, seed)).unwrap();
        let cut = cut_pick % bytes.len();
        prop_assert!(decode_sampler(&bytes[..cut]).is_err());
        let _ = decode_sampler_salvage(&bytes[..cut]);

        let tbytes = encode_table(&small_table(30, seed)).unwrap();
        let tcut = cut_pick % tbytes.len();
        // Cutting inside the core must be rejected; cutting inside the
        // derived zone section degrades to "no persisted maps", and the
        // re-encode (maps recomputed) matches the pristine file.
        let core_end = 18 + u64::from_le_bytes(tbytes[10..18].try_into().unwrap()) as usize;
        match decode_table(&tbytes[..tcut]) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert!(tcut >= core_end, "truncation at {} inside core decoded", tcut);
                prop_assert_eq!(encode_table(&decoded).unwrap(), tbytes);
            }
        }
    }
}

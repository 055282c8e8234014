//! CRC32C (Castagnoli) checksums for persisted files.
//!
//! Both binary codecs (`AQPT` tables, `AQPS` sample families) protect their
//! payloads with a CRC32C so that torn writes, truncation, and bit rot are
//! detected on load instead of silently misparsing. The Castagnoli
//! polynomial is the one used by iSCSI, ext4, and most storage systems; the
//! implementation is table-driven and dependency-free: eight bytes per
//! step through eight tables built at compile time ("slicing-by-8"), the
//! classic byte-at-a-time loop for the tail. A file load checksums every
//! byte it reads, so this sets the floor under load time.

/// Reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC32C of `bytes`.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard CRC32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes, another published vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn sensitive_to_any_single_bit_flip() {
        let data: Vec<u8> = (0..=255u8).collect();
        let base = crc32c(&data);
        for byte in [0usize, 17, 128, 255] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn eight_byte_steps_equal_the_bytewise_definition() {
        // Every length 0..64 at every alignment of a patterned buffer, so
        // both the 8-byte loop and the tail are checked against the
        // one-byte-at-a-time recurrence.
        let bytewise = |bytes: &[u8]| {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        };
        let data: Vec<u8> = (0..96u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..64 {
                let slice = &data[start..start + len];
                assert_eq!(crc32c(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }
}

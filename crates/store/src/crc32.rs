//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) — the per-section
//! integrity check of the store format.
//!
//! Implemented as slicing-by-8: eight 256-entry tables, computed at
//! compile time from the one reflected polynomial, fold eight input bytes
//! per step, and the classic byte-at-a-time loop over table 0 handles the
//! tail. The values are those of the byte loop (the tests keep it as the
//! reference); only the speed differs, which matters because every
//! checkpoint checksums every byte it writes and every resume every byte
//! it reads.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop: the reference slicing-by-8 must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = b"sper store section payload".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), clean, "flip at byte {i} undetected");
            data[i] ^= 0x01;
        }
    }

    #[test]
    fn every_tail_length_matches_the_byte_loop() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}..{end}");
            }
        }
    }

    proptest! {
        /// Lengths 0–4,096 at start offsets 0–7, so the eight-byte steps
        /// start unaligned: slicing-by-8 equals the byte loop.
        #[test]
        fn slicing_by_8_equals_the_byte_loop(
            data in collection::vec(0u8..=255, 4_104..4_105),
            offset in 0usize..8,
            len in 0usize..=4_096,
        ) {
            let slice = &data[offset..offset + len];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}

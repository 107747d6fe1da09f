//! A minimal Fx-style hasher (the multiply-rotate scheme popularized by
//! Firefox and rustc) for the token dictionary's hot maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~1 ns/byte; the
//! dictionary hashes every token of every profile once, on trusted
//! in-process data, so a fast non-cryptographic hash is the right trade.
//! Not suitable for maps keyed by untrusted input.
//!
//! The finish rotates the state left by 26 bits, the fix rustc-hash 2
//! made: a product's low bits depend only on the multiplicand's low bits,
//! and `std`'s `HashMap` picks the bucket from the hash's low bits. A key
//! whose low bits vary little — a short token packed into a `u64` has
//! zero high bytes, and tokens sharing their first bytes share their low
//! ones — would otherwise crowd a few buckets; the rotation moves the
//! product's high bits, which every input bit reaches, into the bucket
//! index.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
            // Length in the tail word would collide "ab\0" with "ab"; mix
            // the byte count in explicitly instead.
            self.add_to_hash(bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`], for use as a `HashMap` hasher
/// parameter.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(s: &str) -> u64 {
        let mut h = FxHasher::default();
        h.write(s.as_bytes());
        h.finish()
    }

    #[test]
    fn distinct_strings_distinct_hashes() {
        let inputs = ["", "a", "ab", "ab\0", "ba", "carl", "white", "whitex"];
        let hashes: std::collections::HashSet<u64> = inputs.iter().map(|s| hash_of(s)).collect();
        assert_eq!(hashes.len(), inputs.len());
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_of("tailor"), hash_of("tailor"));
    }

    #[test]
    fn packed_short_keys_spread_over_the_bucket_bits() {
        // 4,096 four-byte tokens packed little-endian, as the dictionary
        // keys them: their low bytes come from the shared first characters.
        // Without the rotated finish the low 12 bits of `w · SEED` depend
        // only on the low 12 bits of `w`, which take 16 values here.
        let mut buckets = std::collections::HashSet::new();
        for i in 0..4_096u32 {
            let token = format!("a{:03x}", i);
            let word = u64::from(u32::from_le_bytes(token.as_bytes().try_into().unwrap()));
            let mut h = FxHasher::default();
            h.write_u64(word);
            buckets.insert(h.finish() & 0xfff);
        }
        assert!(
            buckets.len() > 2_048,
            "{} of 4,096 buckets hit",
            buckets.len()
        );
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for (i, s) in ["x", "y", "z"].iter().enumerate() {
            m.insert(s.to_string(), i as u32);
        }
        assert_eq!(m.get("y"), Some(&1));
    }
}

//! Deterministic FxHash-style hashing for group keys.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with a **random
//! per-process seed**. That is the right default against hash-flooding,
//! but wrong for this executor twice over:
//!
//! * **speed** — SipHash runs a full ARX permutation per 8-byte block.
//!   Group keys are hashed once per row on the interning scan paths and
//!   once per (morsel × group) in the folds; the Fx construction (rotate,
//!   xor, multiply per word) is a handful of cycles — one multiply for
//!   the eight-byte radix key most sampled plans use — and inlines into
//!   the probe loop.
//! * **determinism** — the executor's contract is that answers are a pure
//!   function of the data, the morsel size, and nothing else. Group
//!   *order* no longer rests on any hasher — the maps only find a key's
//!   slot in a flat table kept in first-touch order (see
//!   `groups`) — but a seedless hasher also makes each map's
//!   resize history, and so the executor's timing and memory profile,
//!   reproducible run to run.
//!
//! Hash flooding is not a concern here: group keys come from the system's
//! own dictionary codes and numeric bit patterns, not from untrusted
//! network input.
//!
//! The function is the one popularised by rustc's `FxHashMap`: for each
//! 8-byte word `w` of input, `h = (rotl(h, 5) ^ w) * K` with a fixed odd
//! constant `K`. It is hand-rolled here because the container image bakes
//! in no external crates; `vendor/` carries only the already-vendored
//! stubs. Bytes are folded little-endian so the result is identical on
//! every platform we build for.

use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from rustc's Fx hash (a truncation of π's digits —
/// nothing up the sleeve, just a well-mixed odd constant).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, **deterministic** (seedless) hasher for group keys.
///
/// Unlike the std default, two `FxHasher`s fed the same bytes produce the
/// same output in every process on every platform. See the module docs
/// for why the executor wants that.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s. `Default` is deterministic —
/// there is no per-process seed by design.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        // The whole point: no random seed, so two independently built
        // hashers (as two processes would build them) agree.
        let a = hash_of(&(42u64, "shipmode", true));
        let b = hash_of(&(42u64, "shipmode", true));
        assert_eq!(a, b);
        // Known-answer check so an accidental algorithm change is loud.
        let mut h = FxHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), K);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&0u64), hash_of(&1u64));
        assert_ne!(hash_of(&[1u64, 2]), hash_of(&[2u64, 1]));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn write_matches_word_folding() {
        // write() over 8 little-endian bytes equals write_u64.
        let mut a = FxHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
        // Trailing partial chunks are zero-padded, not dropped.
        let mut c = FxHasher::default();
        c.write(&[0xff]);
        let mut d = FxHasher::default();
        d.write_u64(0xff);
        assert_eq!(c.finish(), d.finish());
        assert_ne!(c.finish(), FxHasher::default().finish());
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..1000 {
                m.insert(i * 2654435761 % 977, i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build(), "layout is a pure function of inserts");
    }
}

//! A fixed multiply-rotate hasher for the model's own keys.
//!
//! The group index and the transition counts are probed on every window,
//! and their keys are state sets and group/actuator ids the model assigned
//! itself. std's SipHash-1-3 resists hash flooding, which these tables do
//! not need: only training inserts keys, and `dice-verify` checks a loaded
//! model before it serves. A live window's state is only looked up and
//! never grows a table. This is the FxHash scheme rustc uses for its own
//! tables: one add and one multiply per word, then a rotate so that both
//! the low bits (hashbrown's bucket) and the top seven bits (its tag) vary.
//
// lint-src: allow-file(hash-container) — this file only names the map type;
// each user of `FxHashMap` carries its own audit pragma for how it iterates.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// rustc-hash 2's multiplier: odd, with well-mixed high bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Word-at-a-time multiply hasher (see the module docs).
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("chunk of 8")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::BitSet;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&(3u32, 4u32)), hash_of(&(3u32, 4u32)));
        assert_ne!(hash_of(&(3u32, 4u32)), hash_of(&(4u32, 3u32)));
        let a = BitSet::from_indices(130, [0, 129]);
        assert_eq!(hash_of(&a), hash_of(&a.clone()));
        assert_ne!(hash_of(&a), hash_of(&BitSet::from_indices(130, [0, 128])));
        assert_ne!(hash_of(&BitSet::new(64)), hash_of(&BitSet::new(65)));
    }

    #[test]
    fn byte_tails_are_hashed() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn dense_ids_spread_over_bucket_and_tag_bits() {
        // hashbrown indexes buckets with the low bits and tags with the top
        // seven; a run of consecutive ids must vary both.
        let hashes: Vec<u64> = (0u32..256).map(|i| hash_of(&(i, i + 1))).collect();
        let buckets: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h & 0xff).collect();
        let tags: std::collections::BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(buckets.len() > 128, "{} distinct low bytes", buckets.len());
        assert!(tags.len() > 64, "{} distinct tags", tags.len());
    }
}

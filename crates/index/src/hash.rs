//! A fixed multiplicative hasher for the index's integer-keyed maps.
//!
//! A map built on it iterates in an order fixed by its insertion
//! history, not by the process — but two histories (say, two worker
//! counts) still give two orders, so nothing may read output from that
//! order. The index only looks keys up.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Add-then-multiply word hasher (the scheme of rustc's `FxHasher`
/// family) with a final rotation that moves the well-mixed high bits
/// into the low bits a hash table indexes by.
#[derive(Debug, Default, Clone, Copy)]
pub struct GridHasher(u64);

/// An odd 64-bit constant with a balanced bit pattern.
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl GridHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for GridHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`GridHasher`].
pub type GridMap<K, V> = HashMap<K, V, BuildHasherDefault<GridHasher>>;

/// A `HashSet` keyed through [`GridHasher`].
pub type GridSet<T> = HashSet<T, BuildHasherDefault<GridHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;
    use trajdp_model::CellId;

    #[test]
    fn hashes_are_fixed_values() {
        // No per-process seed: the same key hashes the same everywhere.
        let build = BuildHasherDefault::<GridHasher>::default();
        assert_eq!(build.hash_one(42u64), 0xae70_bf69_4a4b_18a9);
        assert_eq!(build.hash_one(CellId::new(9, 311, 127)), 0x118a_b00c_fcdf_0dca);
    }

    #[test]
    fn neighbouring_cells_spread_over_the_low_bits() {
        // A table of 2^b buckets indexes by the low b bits: a 64×64 block
        // of one level must not pile into a few buckets.
        let build = BuildHasherDefault::<GridHasher>::default();
        let mut buckets = [0usize; 1024];
        for col in 0..64 {
            for row in 0..64 {
                let h = build.hash_one(CellId::new(6, col, row));
                buckets[(h & 1023) as usize] += 1;
            }
        }
        // 4096 keys over 1024 buckets: 4 on average.
        assert!(buckets.iter().all(|&n| n <= 16), "max bucket {:?}", buckets.iter().max());
    }
}

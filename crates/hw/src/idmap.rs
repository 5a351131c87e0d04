//! A deterministic hasher for maps keyed by simulator-allocated ids.
//!
//! Segment uids and process ids are integers the simulator hands out
//! itself, so no caller chooses keys to collide and SipHash's flood
//! resistance buys nothing on the supervisors' per-word paths. Maps keyed
//! by script or user input (names, accounts, tokens) keep the std hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate word hasher (the FxHash recipe); `finish` rotates
/// the well-mixed high bits down to the table's index bits.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by simulator-allocated ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator-allocated ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn ids_hash_alike_in_every_map_and_spread_when_aligned() {
        let (a, b): (IdMap<u64, u32>, IdMap<u64, u32>) = (
            (0..500).map(|k| (k * 7, 0)).collect(),
            (0..500).map(|k| (k * 7, 0)).collect(),
        );
        assert!(
            a.keys().eq(b.keys()),
            "iteration order is a function of the keys"
        );
        // Page-aligned ids still reach every low index bit.
        let build = BuildHasherDefault::<IdHasher>::default();
        let low: HashSet<u64> = (0..64u64).map(|k| build.hash_one(k << 10) & 63).collect();
        assert!(low.len() > 32, "{} of 64 buckets", low.len());
    }
}

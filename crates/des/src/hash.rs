//! A deterministic multiplicative hasher for small integer keys.
//!
//! The std `HashMap` default (SipHash with a random per-process key) is
//! built to resist collision attacks; for the simulator's own keys —
//! (core, line) pairs looked up on every cached load — it is pure host
//! cost. This is the Fx word-at-a-time mix (rotate, xor, multiply by a
//! fixed odd constant): no key, so no run-to-run variation either.
//! Switching a map to it changes the map's iteration order, so switch
//! only maps whose iteration order nothing depends on.

use std::hash::{BuildHasherDefault, Hasher};

/// Fx hasher state (see the module docs).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap<K, V, FxBuildHasher>` hashes with [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let h = |k: (u8, u8, u16)| FxBuildHasher::default().hash_one(k);
        assert_eq!(h((1, 2, 3)), h((1, 2, 3)));
        let mut seen: Vec<u64> =
            (0..64u16).flat_map(|l| (0..48u8).map(move |c| h((0, c, l)))).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64 * 48, "every (core, line) key hashes distinctly");
        let mut s = FxHasher::default();
        [7u8, 9].hash(&mut s);
        assert_ne!(s.finish(), 0);
    }
}

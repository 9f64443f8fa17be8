//! A tiny multiply-rotate hasher for the kernel's small integer keys.
//!
//! The slow path hashes (space, vpn) pairs on every Pmap and Cmap touch;
//! the standard library's SipHash is DoS-resistant but costs more than
//! the rest of the map operation combined. Keys here are kernel-chosen
//! small integers, never attacker-controlled, so a Fibonacci-style
//! multiply hash is both safe and several times cheaper.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant: 2^64 / phi, the usual Fibonacci-hash odd
/// constant, which diffuses low-entropy integer keys across the high bits.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A non-cryptographic hasher for kernel-internal integer keys.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: fold 8 bytes at a time. Only integer keys are
        // expected, but derived Hash impls may route through here.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(K);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
}

/// `HashMap` keyed by kernel integers, using [`FastHasher`].
pub(crate) type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly() {
        // Not a collision-resistance proof, just a sanity check that the
        // mixer actually mixes: 10k sequential (space, vpn) pairs should
        // produce 10k distinct hashes.
        let mut seen = std::collections::HashSet::new();
        for s in 0..100u64 {
            for v in 0..100u64 {
                let mut h = FastHasher::default();
                h.write_u64(s);
                h.write_u64(v);
                seen.insert(h.finish());
            }
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<(u64, u64), u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert((i, i * 7), i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i, i * 7)), Some(&(i as u32)));
        }
    }
}

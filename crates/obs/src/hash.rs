//! The workspace's two hashes.
//!
//! FNV-1a (64-bit) is the one content hash: lock-site keys, dataset
//! fingerprints, eval-cache scopes and trace config hashes all fold
//! their bytes through it.
//!
//! ```
//! use fume_obs::hash::{fnv1a, Fnv1a};
//! let mut h = Fnv1a::new();
//! h.write(b"fume");
//! h.write(b"-obs");
//! assert_eq!(h.finish(), fnv1a(b"fume-obs"));
//! ```
//!
//! [`WordHasher`] is the one in-memory map hasher: it keys the maps that
//! are looked up by row-id lists (the serve eval cache, the per-batch
//! eval dedup), folding 8 bytes per step where FNV-1a folds one. Its
//! values are never persisted.
//!
//! ```
//! use std::collections::HashMap;
//! use fume_obs::hash::WordHashBuilder;
//! let mut first: HashMap<&[u32], usize, WordHashBuilder> = HashMap::default();
//! first.insert(&[3, 5, 8], 0);
//! assert_eq!(first.get(&[3u32, 5, 8][..]), Some(&0));
//! ```

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a state: feeding bytes in pieces hashes exactly like
/// feeding their concatenation, and nothing is buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty-input state (the FNV offset basis).
    #[must_use]
    pub const fn new() -> Self {
        Self(OFFSET)
    }

    /// Folds `bytes` into the state.
    pub const fn write(&mut self, bytes: &[u8]) {
        let mut i = 0;
        while i < bytes.len() {
            self.0 ^= bytes[i] as u64;
            self.0 = self.0.wrapping_mul(PRIME);
            i += 1;
        }
    }

    /// The hash of everything written so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte string; usable in const context.
#[must_use]
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// A deterministic word-at-a-time [`Hasher`](std::hash::Hasher) for
/// in-memory hash maps, in the style of rustc's Fx hash: each 8-byte
/// word is folded in with one rotate, xor and multiply, so a row-id list
/// of `n` ids costs about `n / 2` steps. It has no per-process seed, so
/// it does not resist inputs chosen to collide; use it only for keys the
/// program derives itself. Not a content hash: its values are never
/// stored, and nothing may depend on them beyond one map's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordHasher(u64);

/// A [`BuildHasher`](std::hash::BuildHasher) of [`WordHasher`]s, for
/// `HashMap<K, V, WordHashBuilder>`.
pub type WordHashBuilder = std::hash::BuildHasherDefault<WordHasher>;

/// An odd multiplier with well-mixed bits (2^64 / φ).
const WORD_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_K);
    }
}

impl std::hash::Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    /// Scope keys: one step.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    /// A slice's length prefix: one step.
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The last multiply leaves its best-mixed bits at the top; the
    /// rotate brings them down to the low bits a map indexes buckets by.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::default();
        for piece in [&b"checkpoint"[..], b"", b"::", b"fingerprint"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), fnv1a(b"checkpoint::fingerprint"));
    }

    fn word_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        use std::hash::BuildHasher as _;
        WordHashBuilder::default().hash_one(value)
    }

    #[test]
    fn word_hasher_is_deterministic_and_separates_row_lists() {
        let rows: Vec<u32> = (0..70).map(|i| i * 3 + 1).collect();
        // Fixed across runs and processes: no per-process seed.
        assert_eq!(word_hash(&rows[..]), word_hash(&rows.clone()[..]));
        // Every prefix (odd lengths end in a half word) hashes apart.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=rows.len() {
            assert!(seen.insert(word_hash(&rows[..len])), "prefix {len} collides");
        }
        // A slice and its `Arc` copy hash alike, so maps keyed by
        // `Arc<[u32]>` can be looked up by `&[u32]`.
        let shared: std::sync::Arc<[u32]> = rows[..33].into();
        assert_eq!(word_hash(&shared), word_hash(&rows[..33]));
    }

    #[test]
    fn word_hasher_folds_bytes_a_word_at_a_time() {
        use std::hash::Hasher as _;
        let mut bytes = WordHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0]);
        let mut words = WordHasher::default();
        words.write_u64(1);
        words.write_u64(2);
        assert_eq!(bytes.finish(), words.finish());
    }
}

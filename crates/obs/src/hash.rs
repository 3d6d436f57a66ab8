//! FNV-1a (64-bit), the workspace's one content hash: lock-site keys,
//! dataset fingerprints, eval-cache scopes and trace config hashes all
//! fold their bytes through it.
//!
//! ```
//! use fume_obs::hash::{fnv1a, Fnv1a};
//! let mut h = Fnv1a::new();
//! h.write(b"fume");
//! h.write(b"-obs");
//! assert_eq!(h.finish(), fnv1a(b"fume-obs"));
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
}

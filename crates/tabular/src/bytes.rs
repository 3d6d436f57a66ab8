//! Little-endian byte cursors shared by the workspace's binary formats
//! (`fume_forest::persist` and `fume_core::checkpoint`): the
//! `bytes::{Buf, BufMut}` subset they use, implemented directly on
//! `Vec<u8>` and `&[u8]` so no crate needs a dependency for it.
//!
//! The getters assume the caller has already checked
//! [`Buf::remaining`]: each format owns a typed `need(buf, n, what)`
//! check that turns a short input into its own `Corrupt` error before
//! reading (the `bytes` crate would panic on a short read identically).
//!
//! ```
//! use fume_tabular::bytes::{Buf, BufMut};
//! let mut out = Vec::new();
//! out.put_u16_le(7);
//! out.put_f64_le(0.5);
//! let mut cur = out.as_slice();
//! assert_eq!(cur.get_u16_le(), 7);
//! assert_eq!(cur.get_f64_le(), 0.5);
//! assert!(!cur.has_remaining());
//! ```

/// Little-endian write cursor.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u16`, little-endian.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a `u32`, little-endian.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a `u64`, little-endian.
    fn put_u64_le(&mut self, v: u64);
    /// Appends an `f64` as its IEEE-754 bits, little-endian.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
    /// Appends raw bytes.
    fn put_slice(&mut self, v: &[u8]);
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Little-endian read cursor over a byte slice, advancing the slice in
/// place.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Whether any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Reads one byte.
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Reads an `f64` from its little-endian IEEE-754 bits.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
    /// Fills `dst` from the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }
    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        *self = rest;
        // fume-lint: allow(F001) -- split_at(2) always yields a 2-byte head; the conversion cannot fail
        u16::from_le_bytes(head.try_into().expect("split_at(2)"))
    }
    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        // fume-lint: allow(F001) -- split_at(4) always yields a 4-byte head; the conversion cannot fail
        u32::from_le_bytes(head.try_into().expect("split_at(4)"))
    }
    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        // fume-lint: allow(F001) -- split_at(8) always yields an 8-byte head; the conversion cannot fail
        u64::from_le_bytes(head.try_into().expect("split_at(8)"))
    }
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

//! Offline shim for `bytes`: `Bytes`/`BytesMut` plus the big-endian
//! `Buf`/`BufMut` accessors the gateway wire format uses.
//!
//! `Bytes` shares its backing store behind an `Arc`, so cloning a frame and
//! handing it across channels stays cheap, as with the real crate. Reading
//! advances an internal cursor (the real crate's `Buf` semantics). The
//! accessors are `#[inline]`, as upstream's are, so a codec built on them
//! compiles to direct stores and loads across crate boundaries.

use std::sync::Arc;

/// A cheaply cloneable, contiguous, read-only byte buffer with a read
/// cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<[u8]>,
    pos: usize,
}

impl Bytes {
    /// The unread remainder as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }

    /// Number of unread bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether no unread bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: data.into(),
            pos: 0,
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A growable byte buffer for frame assembly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[inline]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with `capacity` bytes preallocated.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Number of bytes written.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Bytes the buffer holds room for without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Discards the written bytes, keeping the allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Writes in place over bytes already appended, as upstream allows (a
/// length prefix can be patched once the body behind it is written).
impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Sequential big-endian reads from a buffer.
pub trait Buf {
    /// Number of unread bytes.
    fn remaining(&self) -> usize;

    /// Consumes and returns the next `N` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `N` bytes remain (callers check `remaining()`
    /// first, as with the real crate).
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Reads a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `i64`.
    #[inline]
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `f64`.
    #[inline]
    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take_array())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.remaining() >= N, "buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[self.pos..self.pos + N]);
        self.pos += N;
        out
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.remaining() >= N, "buffer underflow");
        let mut out = [0u8; N];
        out.copy_from_slice(&self[..N]);
        *self = &self[N..];
        out
    }
}

/// Sequential big-endian writes into a buffer.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Writes one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Writes a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `i64`.
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Writes a big-endian `f64`.
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

/// Writes into a fixed slice, advancing it past the written bytes (the
/// real crate's semantics).
impl BufMut for &mut [u8] {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        assert!(self.len() >= src.len(), "buffer overflow");
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, Bytes, BytesMut};

    #[test]
    fn round_trip_all_widths() {
        let mut buf = BytesMut::with_capacity(21);
        buf.put_u8(0xAB);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_i64(-12345);
        buf.put_f64(21.125);
        let mut frozen = buf.freeze();
        assert_eq!(frozen.remaining(), 21);
        assert_eq!(frozen.get_u8(), 0xAB);
        assert_eq!(frozen.get_u32(), 0xDEAD_BEEF);
        assert_eq!(frozen.get_i64(), -12345);
        assert_eq!(frozen.get_f64(), 21.125);
        assert_eq!(frozen.remaining(), 0);
    }

    #[test]
    fn clone_shares_but_cursors_are_independent() {
        let mut a = Bytes::from(vec![1, 2, 3]);
        let mut b = a.clone();
        assert_eq!(a.get_u8(), 1);
        assert_eq!(b.remaining(), 3);
        assert_eq!(b.get_u8(), 1);
        assert_eq!(a.get_u8(), 2);
    }

    #[test]
    fn slice_writes_advance_and_overflow_panics() {
        let mut storage = [0u8; 5];
        let mut rest: &mut [u8] = &mut storage;
        rest.put_u8(7);
        rest.put_u16(0x0102);
        assert_eq!(rest.len(), 2);
        assert_eq!(storage, [7, 1, 2, 0, 0]);
        let overflow = std::panic::catch_unwind(|| {
            let mut small = [0u8; 3];
            let mut rest: &mut [u8] = &mut small;
            rest.put_u32(1);
        });
        assert!(overflow.is_err());
    }

    #[test]
    fn written_bytes_patch_in_place() {
        let mut buf = BytesMut::new();
        buf.put_u16(0);
        buf.put_u8(0xAB);
        let body = (buf.len() - 2) as u16;
        buf[..2].copy_from_slice(&body.to_be_bytes());
        assert_eq!(&buf[..], &[0, 1, 0xAB]);
        assert_eq!(buf.freeze().as_slice(), &[0, 1, 0xAB]);
    }

    #[test]
    fn clear_keeps_the_allocation_for_new_writes() {
        let mut buf = BytesMut::with_capacity(12);
        buf.put_u64(1);
        buf.put_u32(2);
        let storage = buf.as_ptr();
        let capacity = buf.capacity();
        buf.clear();
        assert_eq!(buf.len(), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), capacity);
        // Refilling to the old length writes into the same allocation.
        buf.put_u16(0x0102);
        buf.put_u64(3);
        buf.put_u16(0x0405);
        assert_eq!(buf.as_ptr(), storage);
        assert_eq!(&buf[..], &[1, 2, 0, 0, 0, 0, 0, 0, 0, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32();
    }
}

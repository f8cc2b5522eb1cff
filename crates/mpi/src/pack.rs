//! Explicit message packing — `MPI_Pack`/`MPI_Unpack`.
//!
//! §2 of the paper: *"MPI requires explicit packing and unpacking of
//! messages (i.e., a data structure residing in a non-continuous memory
//! must be packed into a continuous memory area before being sent and must
//! be unpacked in the receiver)."* [`PackBuffer`] is that continuous area:
//! a position-tracked byte buffer with typed put/take operations and zero
//! framing overhead — which is precisely why the MPI curve of Fig. 8a runs
//! at the wire limit while the remoting stacks pay serialization tax.

use crate::error::MpiError;

/// A contiguous pack/unpack buffer with a read position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackBuffer {
    data: Vec<u8>,
    position: usize,
}

impl PackBuffer {
    /// Creates an empty pack buffer.
    pub fn new() -> PackBuffer {
        PackBuffer::default()
    }

    /// Wraps received bytes for unpacking.
    pub fn from_bytes(data: Vec<u8>) -> PackBuffer {
        PackBuffer { data, position: 0 }
    }

    /// Total packed bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been packed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes left to unpack.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.position
    }

    /// Consumes the buffer into its raw bytes (for `send`).
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Packs raw bytes.
    pub fn pack_bytes(&mut self, v: &[u8]) {
        self.data.extend_from_slice(v);
    }

    /// Packs an `i32` slice (native little-endian, like MPICH on x86).
    pub fn pack_i32(&mut self, v: &[i32]) {
        self.data.reserve(v.len() * 4);
        for x in v {
            self.data.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Packs an `f64` slice.
    pub fn pack_f64(&mut self, v: &[f64]) {
        self.data.reserve(v.len() * 8);
        for x in v {
            self.data.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Packs a `u64` count (for length-prefixed protocols built on pack).
    pub fn pack_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn take(&mut self, n: usize) -> Result<&[u8], MpiError> {
        if self.remaining() < n {
            return Err(MpiError::Truncated { wanted: n, available: self.remaining() });
        }
        let s = &self.data[self.position..self.position + n];
        self.position += n;
        Ok(s)
    }

    /// Takes `count` elements of `width` bytes each. A count whose byte
    /// size overflows `usize` is [`MpiError::Truncated`] too: lengths read
    /// off a socket are untrusted and must never panic the decoder.
    fn take_elems(&mut self, count: usize, width: usize) -> Result<&[u8], MpiError> {
        let n = count.checked_mul(width).ok_or(MpiError::Truncated {
            wanted: usize::MAX,
            available: self.remaining(),
        })?;
        self.take(n)
    }

    /// Unpacks `count` raw bytes.
    ///
    /// # Errors
    ///
    /// [`MpiError::Truncated`] when fewer bytes remain.
    pub fn unpack_bytes(&mut self, count: usize) -> Result<Vec<u8>, MpiError> {
        Ok(self.take(count)?.to_vec())
    }

    /// Unpacks `count` `i32`s.
    ///
    /// # Errors
    ///
    /// [`MpiError::Truncated`] when fewer bytes remain.
    pub fn unpack_i32(&mut self, count: usize) -> Result<Vec<i32>, MpiError> {
        let raw = self.take_elems(count, 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Unpacks `count` `f64`s.
    ///
    /// # Errors
    ///
    /// [`MpiError::Truncated`] when fewer bytes remain.
    pub fn unpack_f64(&mut self, count: usize) -> Result<Vec<f64>, MpiError> {
        let raw = self.take_elems(count, 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_bits(u64::from_le_bytes(b))
            })
            .collect())
    }

    /// Unpacks a `u64` count.
    ///
    /// # Errors
    ///
    /// [`MpiError::Truncated`] when fewer than 8 bytes remain.
    pub fn unpack_u64(&mut self) -> Result<u64, MpiError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        Ok(u64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parc_testkit::Config;

    #[test]
    fn mixed_pack_unpack_in_order() {
        let mut buf = PackBuffer::new();
        buf.pack_u64(3);
        buf.pack_i32(&[1, -2, 3]);
        buf.pack_f64(&[0.5]);
        buf.pack_bytes(b"xyz");
        let mut rx = PackBuffer::from_bytes(buf.into_bytes());
        assert_eq!(rx.unpack_u64().unwrap(), 3);
        assert_eq!(rx.unpack_i32(3).unwrap(), vec![1, -2, 3]);
        assert_eq!(rx.unpack_f64(1).unwrap(), vec![0.5]);
        assert_eq!(rx.unpack_bytes(3).unwrap(), b"xyz");
        assert_eq!(rx.remaining(), 0);
    }

    #[test]
    fn pack_has_zero_overhead() {
        let mut buf = PackBuffer::new();
        buf.pack_i32(&[0; 1000]);
        assert_eq!(buf.len(), 4000);
        buf.pack_f64(&[0.0; 10]);
        assert_eq!(buf.len(), 4080);
    }

    #[test]
    fn truncated_unpack_is_error_not_panic() {
        let mut buf = PackBuffer::from_bytes(vec![0; 7]);
        assert!(matches!(buf.unpack_f64(1), Err(MpiError::Truncated { .. })));
        assert_eq!(buf.remaining(), 7, "failed unpack consumes nothing");
        assert!(buf.unpack_i32(1).is_ok());
    }

    #[test]
    fn overflowing_counts_are_truncation_not_panic() {
        let mut buf = PackBuffer::from_bytes(vec![0; 4]);
        assert!(matches!(
            buf.unpack_i32(usize::MAX / 4 + 1),
            Err(MpiError::Truncated { wanted: usize::MAX, available: 4 })
        ));
        assert!(matches!(
            buf.unpack_f64(usize::MAX / 8 + 1),
            Err(MpiError::Truncated { wanted: usize::MAX, available: 4 })
        ));
        assert_eq!(buf.unpack_i32(1).unwrap(), vec![0], "failed unpacks consume nothing");
    }

    #[test]
    fn empty_buffer_reports_empty() {
        let buf = PackBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn prop_i32_roundtrip() {
        Config::new().check(
            |src| src.vec_of(0..200, |s| s.i32_any()),
            |v| {
                let mut buf = PackBuffer::new();
                buf.pack_i32(v);
                let mut rx = PackBuffer::from_bytes(buf.into_bytes());
                assert_eq!(&rx.unpack_i32(v.len()).unwrap(), v);
            },
        );
    }

    #[test]
    fn prop_f64_bits_roundtrip() {
        Config::new().check(
            |src| src.vec_of(0..100, |s| s.u64_any()),
            |v| {
                let fs: Vec<f64> = v.iter().map(|&b| f64::from_bits(b)).collect();
                let mut buf = PackBuffer::new();
                buf.pack_f64(&fs);
                let mut rx = PackBuffer::from_bytes(buf.into_bytes());
                let out = rx.unpack_f64(fs.len()).unwrap();
                let bits: Vec<u64> = out.iter().map(|f| f.to_bits()).collect();
                assert_eq!(&bits, v);
            },
        );
    }

    #[test]
    fn prop_interleaved_segments() {
        Config::new().check(
            |src| src.vec_of(0..10, |s| s.vec_of(0..20, |s| s.i32_any())),
            |segments| {
                let mut buf = PackBuffer::new();
                for s in segments {
                    buf.pack_u64(s.len() as u64);
                    buf.pack_i32(s);
                }
                let mut rx = PackBuffer::from_bytes(buf.into_bytes());
                for s in segments {
                    let n = rx.unpack_u64().unwrap() as usize;
                    assert_eq!(n, s.len());
                    assert_eq!(&rx.unpack_i32(n).unwrap(), s);
                }
                assert_eq!(rx.remaining(), 0);
            },
        );
    }
}

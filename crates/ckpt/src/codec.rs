//! Section payload codec: little-endian, length-prefixed, bitwise-exact.
//!
//! `f64`s are stored as their raw IEEE-754 little-endian bytes
//! ([`f64::to_le_bytes`]), so a save/restore round trip is **bitwise**
//! lossless — the property the restart-equivalence tests lean on. Every
//! [`Dec`] read is bounds-checked and returns a typed
//! [`CkptError::Decode`]/[`CkptError::Truncated`] naming the section and
//! absolute file offset; the decode path contains no indexing that can
//! panic.

use crate::error::CkptError;

/// Section payload encoder (append-only byte buffer).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends one `f64` (raw IEEE bits, little-endian).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        self.buf.reserve(8 * v.len());
        for x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed vector of length-prefixed `f64` slices
    /// (per-element quadrature fields and the like).
    pub fn vecs(&mut self, v: &[Vec<f64>]) {
        self.usize(v.len());
        for inner in v {
            self.f64s(inner);
        }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, yielding the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder over one section's payload.
///
/// Carries the section name and the payload's absolute file offset so
/// every error points at real bytes in the file.
pub struct Dec<'a> {
    section: &'a str,
    /// Absolute file offset of `buf[0]`.
    base: u64,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, which starts at absolute file offset `base`.
    pub fn new(section: &'a str, base: u64, buf: &'a [u8]) -> Dec<'a> {
        Dec { section, base, buf, pos: 0 }
    }

    /// Absolute file offset of the next read.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CkptError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CkptError::Truncated {
                section: self.section.to_string(),
                offset: self.offset(),
                needed: n as u64,
                have: have as u64,
            });
        }
        let _ = what;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("take returned 8 bytes")))
    }

    /// Reads a `u64` and checks it fits a `usize` and a sanity cap (a
    /// corrupted length prefix must not drive an allocation of 2^60
    /// elements).
    pub fn len_prefix(&mut self, cap: u64) -> Result<usize, CkptError> {
        let off = self.offset();
        let n = self.u64()?;
        if n > cap {
            return Err(CkptError::Decode {
                section: self.section.to_string(),
                offset: off,
                what: format!("length <= {cap}, found {n}"),
            });
        }
        Ok(n as usize)
    }

    /// Reads one `f64`.
    pub fn f64(&mut self) -> Result<f64, CkptError> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_le_bytes(b.try_into().expect("take returned 8 bytes")))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CkptError> {
        let n = self.len_prefix(self.remaining_elems())?;
        let b = self.take(8 * n, "f64 slice")?;
        Ok(b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect())
    }

    /// Reads a length-prefixed `f64` slice into `out`, which fixes the
    /// length: a prefix that disagrees is a [`CkptError::StateMismatch`]
    /// naming `what`.
    pub fn f64s_into(&mut self, out: &mut [f64], what: &str) -> Result<(), CkptError> {
        self.expect_u64(out.len() as u64, what)?;
        let b = self.take(8 * out.len(), "f64 slice")?;
        for (v, c) in out.iter_mut().zip(b.chunks_exact(8)) {
            *v = f64::from_le_bytes(c.try_into().expect("chunks_exact(8)"));
        }
        Ok(())
    }

    /// Reads a length-prefixed vector of length-prefixed `f64` slices.
    pub fn vecs(&mut self) -> Result<Vec<Vec<f64>>, CkptError> {
        let n = self.len_prefix(self.remaining_elems())?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64s()?);
        }
        Ok(out)
    }

    /// Upper bound on any plausible element count in the rest of the
    /// payload (used to reject corrupt length prefixes before they
    /// allocate).
    fn remaining_elems(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Asserts the payload was consumed exactly; trailing bytes mean the
    /// writer and reader disagree about the section layout.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos != self.buf.len() {
            return Err(CkptError::Decode {
                section: self.section.to_string(),
                offset: self.offset(),
                what: format!("end of section, found {} trailing byte(s)", self.buf.len() - self.pos),
            });
        }
        Ok(())
    }

    /// Checks a decoded value against what the running state requires,
    /// mapping disagreement to [`CkptError::StateMismatch`].
    pub fn expect_u64(&mut self, want: u64, what: &str) -> Result<(), CkptError> {
        let got = self.u64()?;
        if got != want {
            return Err(CkptError::StateMismatch {
                what: format!("{what}: checkpoint has {got}, solver has {want}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_vectors() {
        let mut e = Enc::new();
        e.u64(42);
        e.f64(-0.0);
        e.f64s(&[1.5, f64::MIN_POSITIVE, -3.25]);
        e.vecs(&[vec![1.0], vec![], vec![2.0, 3.0]]);
        let bytes = e.into_bytes();
        let mut d = Dec::new("t", 100, &bytes);
        assert_eq!(d.u64().unwrap(), 42);
        let z = d.f64().unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "raw bits survive");
        assert_eq!(d.f64s().unwrap(), vec![1.5, f64::MIN_POSITIVE, -3.25]);
        assert_eq!(d.vecs().unwrap(), vec![vec![1.0], vec![], vec![2.0, 3.0]]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_with_offset() {
        let mut e = Enc::new();
        e.u64(7);
        let bytes = e.into_bytes();
        let mut d = Dec::new("meta", 12, &bytes[..5]);
        match d.u64() {
            Err(CkptError::Truncated { section, offset, needed, have }) => {
                assert_eq!(section, "meta");
                assert_eq!(offset, 12);
                assert_eq!((needed, have), (8, 5));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn absurd_length_prefix_rejected_before_allocating() {
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new("fields", 0, &bytes);
        assert!(matches!(d.f64s(), Err(CkptError::Decode { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u64(1);
        e.u64(2);
        let bytes = e.into_bytes();
        let mut d = Dec::new("s", 0, &bytes);
        d.u64().unwrap();
        assert!(matches!(d.finish(), Err(CkptError::Decode { .. })));
    }
}

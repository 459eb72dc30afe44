//! The one bounded little-endian codec behind every binary format in
//! the workspace: session checkpoints (PFSC), detector bundles (PFDB),
//! network weights (PFNN), incident dumps (PFBB), drift fingerprints
//! (PFDF) and ingest batches (PFIB).
//!
//! A [`Writer`] appends fixed-width little-endian fields to a
//! `Vec<u8>`; a [`Reader`] reads them back from untrusted bytes and
//! returns a [`WireError`] instead of panicking or over-allocating.
//! Three rules make every decoder bounded and canonical:
//!
//! * [`Reader::count`] refuses a declared item count whose items
//!   cannot fit in the bytes that remain, so no header can demand an
//!   allocation larger than the blob that carries it;
//! * bools and option tags are strict — any byte other than 0 or 1
//!   is refused;
//! * [`Reader::expect_end`] refuses trailing bytes.
//!
//! Together they make any blob a decoder accepts re-encode to exactly
//! the same bytes. Floats travel as raw IEEE-754 bits, so NaN payloads
//! survive a round trip.

use std::fmt;

/// FNV-1a 64-bit hash — tiny, dependency-free, stable across builds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Why a [`Reader`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A field ran past the end of the input.
    Truncated,
    /// A declared item count cannot fit in the bytes that remain.
    Count {
        /// The declared count.
        count: usize,
        /// Bytes left in the input when the count was checked.
        remaining: usize,
    },
    /// A bool or option tag other than 0 or 1.
    Tag(u8),
    /// A string field that is not UTF-8.
    Utf8,
    /// Bytes left over after the last field.
    Trailing(usize),
    /// The FNV-1a trailer does not match the body.
    Checksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated"),
            WireError::Count { count, remaining } => {
                write!(f, "count {count} cannot fit in {remaining} remaining bytes")
            }
            WireError::Tag(t) => write!(f, "invalid tag byte {t}"),
            WireError::Utf8 => write!(f, "string is not UTF-8"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
            WireError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Lets decoders that report plain-string errors use `?`.
impl From<WireError> for String {
    fn from(e: WireError) -> Self {
        e.to_string()
    }
}

/// Appends little-endian fields to a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

/// Reads little-endian fields from untrusted bytes, refusing rather
/// than panicking on anything malformed.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

/// The fixed-width integer fields, written and read little-endian.
/// Codecs in other crates call these field by field; `#[inline]` lets
/// each compile them into its own loop.
macro_rules! int_fields {
    ($($t:ident),*) => {
        impl Writer {
            $(#[inline]
            pub fn $t(&mut self, v: $t) {
                self.bytes(&v.to_le_bytes());
            })*
        }
        impl Reader<'_> {
            $(#[inline]
            pub fn $t(&mut self) -> Result<$t, WireError> {
                self.array().map($t::from_le_bytes)
            })*
        }
    };
}
int_fields!(u8, u16, u32, u64, i64, i128);

impl Writer {
    /// An empty writer that will not reallocate below `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// `u16` byte length + UTF-8 bytes, cut at `u16::MAX` bytes.
    pub fn str(&mut self, s: &str) {
        let b = &s.as_bytes()[..s.len().min(usize::from(u16::MAX))];
        self.u16(b.len() as u16);
        self.bytes(b);
    }

    /// A 0/1 presence tag, then the value via `put`.
    pub fn option<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(v) = v {
            put(self, v);
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer with its FNV-1a trailer (`u64`) appended — the
    /// counterpart of [`Reader::checksummed`].
    pub fn finish_checksummed(mut self) -> Vec<u8> {
        self.u64(fnv1a64(&self.buf));
        self.buf
    }
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Verifies and strips the FNV-1a trailer written by
    /// [`Writer::finish_checksummed`]; the reader covers the body.
    pub fn checksummed(bytes: &'a [u8]) -> Result<Self, WireError> {
        let body_len = bytes.len().checked_sub(8).ok_or(WireError::Truncated)?;
        let (body, trailer) = bytes.split_at(body_len);
        if fnv1a64(body).to_le_bytes() != trailer {
            return Err(WireError::Checksum);
        }
        Ok(Self::new(body))
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(WireError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    #[inline]
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.u32().map(f32::from_bits)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// A strict bool: any byte other than 0 or 1 is refused.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::Tag(t)),
        }
    }

    /// A `u16`-length UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = usize::from(self.u16()?);
        let b = self.take(n)?;
        std::str::from_utf8(b)
            .map(str::to_string)
            .map_err(|_| WireError::Utf8)
    }

    /// A strict 0/1 presence tag, then the value via `get`.
    pub fn option<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.bool()? {
            get(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Passes a declared count of items, each at least
    /// `min_item_bytes` long, only if they fit in the bytes that
    /// remain — the one bound on every allocation a header can demand.
    pub fn count(&self, count: usize, min_item_bytes: usize) -> Result<usize, WireError> {
        let remaining = self.remaining();
        if count.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(WireError::Count { count, remaining });
        }
        Ok(count)
    }

    /// Refuses any bytes after the last field.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fields_round_trip_bit_exactly() {
        let mut w = Writer::default();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-5);
        w.i128(i128::MIN + 3);
        w.f32(f32::from_bits(0x7FC0_0001)); // NaN with a payload
        w.f64(-0.0);
        w.bool(true);
        w.str("héllo");
        w.option(Some(9u64), Writer::u64);
        w.option(None::<u64>, Writer::u64);
        let bytes = w.finish_checksummed();

        let mut r = Reader::checksummed(&bytes).unwrap();
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.i64(), Ok(-5));
        assert_eq!(r.i128(), Ok(i128::MIN + 3));
        assert_eq!(r.f32().map(f32::to_bits), Ok(0x7FC0_0001));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.option(Reader::u64), Ok(Some(9)));
        assert_eq!(r.option(Reader::u64), Ok(None));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn malformed_input_is_refused() {
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(WireError::Truncated));
        assert_eq!(Reader::new(&[2]).bool(), Err(WireError::Tag(2)));
        assert_eq!(
            Reader::new(&[2, 0]).option(Reader::u8),
            Err(WireError::Tag(2))
        );
        assert_eq!(Reader::new(&[1, 0, 0xFF]).str(), Err(WireError::Utf8));
        assert_eq!(Reader::new(&[0]).expect_end(), Err(WireError::Trailing(1)));
        // A count whose items cannot fit is refused before any
        // allocation, including ones that would overflow `usize`.
        let r = Reader::new(&[0; 10]);
        assert_eq!(r.count(2, 5), Ok(2));
        assert!(r.count(3, 4).is_err());
        assert!(r.count(usize::MAX, 2).is_err());
        // Checksum: too short, and any flipped bit.
        assert_eq!(
            Reader::checksummed(&[0; 7]).err(),
            Some(WireError::Truncated)
        );
        let mut w = Writer::default();
        w.u32(42);
        let mut bytes = w.finish_checksummed();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(Reader::checksummed(&bytes).is_err(), "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

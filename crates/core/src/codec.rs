//! The one binary codec behind every byte format the workspace reads and
//! writes: the quantizer file (PQFS, [`crate::persist`]), the index file
//! (PQIV, `pqfs_ivf::persist`) and the wire protocol (PQSV,
//! `pqfs_server::proto`), all little-endian.
//!
//! * [`Reader`] is a bounds-checked cursor over a byte slice: a short read
//!   is [`CodecError::Truncated`], a count over its cap is
//!   [`CodecError::Limit`] before anything is allocated, and
//!   [`Reader::finish`] rejects trailing bytes. No input panics it.
//! * [`Put`] is the matching set of writers on `Vec<u8>`.
//! * A *block* is a payload followed by its CRC-32 ([`write_block`],
//!   [`read_block`]). After a `u64` length it is a file section; after the
//!   12-byte frame header it is a wire payload.
//! * [`write_file`] / [`FileReader`] are the file container: magic, `u32`
//!   version, sections, a footer holding the CRC-32 of every byte before
//!   it, then EOF.
//!
//! CRC-32 (IEEE 802.3) detects every single-bit and single-byte error and
//! all bursts up to 32 bits, so a torn write, a truncated copy or a bit
//! flip is a typed error instead of a corrupted query result.

use std::io::{self, Read, Write};

/// The CRC-32 lookup table (reflected polynomial `0xEDB88320`), built at
/// compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    extend(0, bytes)
}

/// The CRC-32 of `a ++ bytes`, given `crc`, the CRC-32 of `a`: a running
/// digest, as zlib's `crc32(crc, buf)`.
fn extend(crc: u32, bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!crc, |c, &b| {
        (c >> 8) ^ TABLE[((c ^ b as u32) & 0xFF) as usize]
    })
}

/// Why a decode failed. Each format maps it into its own public error
/// (`PersistError`, `ProtoError`) through `From`.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The bytes ended inside the named field or region.
    Truncated(&'static str),
    /// Bytes were left over after the last field.
    TrailingBytes(usize),
    /// A stored count or length exceeds its cap.
    Limit {
        /// The offending field.
        what: &'static str,
        /// The stored value.
        value: u64,
        /// The largest value accepted.
        max: u64,
    },
    /// A stored CRC-32 disagrees with the bytes it covers.
    Checksum {
        /// The checksummed region.
        section: &'static str,
        /// The CRC stored after the region.
        stored: u32,
        /// The CRC of the bytes actually read.
        computed: u32,
    },
    /// Bad magic, an unsupported version, or bytes after the footer.
    Format(String),
}

/// Reads exactly `N` bytes from a stream: EOF is `Truncated(what)`, any
/// other failure `Io`.
///
/// # Errors
///
/// As above.
pub fn read_array<const N: usize>(
    r: &mut impl Read,
    what: &'static str,
) -> Result<[u8; N], CodecError> {
    let mut a = [0u8; N];
    read_exact(r, &mut a, what)?;
    Ok(a)
}

fn read_exact(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => CodecError::Truncated(what),
        _ => CodecError::Io(e),
    })
}

/// A bounds-checked little-endian cursor over a byte slice. Every read
/// fails as `Truncated(what)`, consuming nothing, when too few bytes are
/// left.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    what: &'static str,
}

/// Declares each scalar once: its [`Reader`] getter and its [`Put`] writer
/// come from the same entry, so the two sides cannot disagree. Floats are
/// bit patterns, so NaNs round-trip exactly.
macro_rules! scalars {
    ($($t:ident $put:ident),*) => {
        impl Reader<'_> {$(
            #[doc = concat!("The next `", stringify!($t), "`.\n\n# Errors\n\n`Truncated`.")]
            pub fn $t(&mut self) -> Result<$t, CodecError> {
                Ok($t::from_le_bytes(self.array()?))
            }
        )*}

        /// Little-endian writers, the inverse of [`Reader`].
        pub trait Put {
            /// Appends raw bytes.
            fn put_bytes(&mut self, bytes: &[u8]);
            $(
                #[doc = concat!("Appends a `", stringify!($t), "`.")]
                fn $put(&mut self, v: $t) {
                    self.put_bytes(&v.to_le_bytes());
                }
            )*
            /// Appends packed `f32`s.
            fn put_f32s(&mut self, vs: &[f32]) {
                for &v in vs {
                    self.put_f32(v);
                }
            }
        }
    };
}
scalars!(u8 put_u8, u16 put_u16, u32 put_u32, u64 put_u64, f32 put_f32, f64 put_f64);

impl Put for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`, naming it `what` in truncation errors.
    pub fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// `Truncated` (so for every read below).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::Truncated(self.what));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// The next `n` packed `f32`s, checked to be there before the vector
    /// is allocated.
    ///
    /// # Errors
    ///
    /// `Truncated`.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        let len = n.checked_mul(4).ok_or(CodecError::Truncated(self.what))?;
        let floats = self.bytes(len)?.chunks_exact(4);
        Ok(floats
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// A stored count, checked against `cap` before anything is allocated
    /// for it.
    ///
    /// # Errors
    ///
    /// `Limit` when `value > cap`.
    pub fn count(value: u64, cap: u64, what: &'static str) -> Result<usize, CodecError> {
        match usize::try_from(value) {
            Ok(n) if value <= cap => Ok(n),
            _ => Err(CodecError::Limit {
                what,
                value,
                max: cap,
            }),
        }
    }

    /// Ends the read: every byte must have been consumed.
    ///
    /// # Errors
    ///
    /// `TrailingBytes` with the number left over.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

/// Writes a block, `payload` then its CRC-32, and returns the CRC.
///
/// # Errors
///
/// The writer's error.
pub fn write_block(w: &mut impl Write, payload: &[u8]) -> io::Result<u32> {
    let crc = crc32(payload);
    w.write_all(payload)?;
    w.write_all(&crc.to_le_bytes())?;
    Ok(crc)
}

/// Reads a block of `len` payload bytes, verifies the CRC-32 after it, and
/// returns both. The payload grows in 4 MiB increments, so a lying `len`
/// on a short stream ends in `Truncated(what)` after at most one increment
/// of over-allocation, never in an out-of-memory abort.
///
/// # Errors
///
/// `Truncated` on EOF inside the block, `Io` on any other read failure,
/// `Checksum` on a CRC mismatch.
pub fn read_block(
    r: &mut impl Read,
    len: u64,
    what: &'static str,
) -> Result<(Vec<u8>, u32), CodecError> {
    const CHUNK: u64 = 4 << 20;
    let mut payload = Vec::new();
    let mut left = len;
    while left > 0 {
        let take = left.min(CHUNK) as usize;
        let old = payload.len();
        payload.resize(old + take, 0);
        read_exact(r, &mut payload[old..], what)?;
        left -= take as u64;
    }
    let stored = u32::from_le_bytes(read_array(r, what)?);
    let computed = crc32(&payload);
    if stored != computed {
        return Err(CodecError::Checksum {
            section: what,
            stored,
            computed,
        });
    }
    Ok((payload, computed))
}

/// Writes a file container: `magic`, `version`, one section (`u64` length,
/// then the block) per item of `sections`, and the footer, the CRC-32 of
/// every byte before it. Sections are written as the iterator yields them.
///
/// # Errors
///
/// The writer's error.
pub fn write_file<S: AsRef<[u8]>>(
    w: &mut impl Write,
    magic: &[u8; 4],
    version: u32,
    sections: impl IntoIterator<Item = S>,
) -> io::Result<()> {
    let mut head = magic.to_vec();
    head.put_u32(version);
    w.write_all(&head)?;
    let mut digest = crc32(&head);
    for section in sections {
        let payload = section.as_ref();
        let len = (payload.len() as u64).to_le_bytes();
        w.write_all(&len)?;
        let crc = write_block(w, payload)?;
        for bytes in [&len[..], payload, &crc.to_le_bytes()] {
            digest = extend(digest, bytes);
        }
    }
    w.write_all(&digest.to_le_bytes())
}

/// Reads a file container written by [`write_file`], keeping the running
/// CRC-32 the footer is checked against.
#[derive(Debug)]
pub struct FileReader<R: Read> {
    r: R,
    digest: u32,
}

impl<R: Read> FileReader<R> {
    /// Reads and checks the magic and the version.
    ///
    /// # Errors
    ///
    /// `Format` for another magic or version, else as [`read_array`].
    pub fn open(r: R, magic: &[u8; 4], version: u32) -> Result<Self, CodecError> {
        let mut file = FileReader { r, digest: 0 };
        let found: [u8; 4] = file.take("magic")?;
        if &found != magic {
            return Err(CodecError::Format(format!("bad magic {found:?}")));
        }
        let stored = u32::from_le_bytes(file.take("version")?);
        if stored != version {
            return Err(CodecError::Format(format!(
                "unsupported version {stored} (this build reads {version})"
            )));
        }
        Ok(file)
    }

    fn take<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], CodecError> {
        let a = read_array(&mut self.r, what)?;
        self.digest = extend(self.digest, &a);
        Ok(a)
    }

    /// Reads one section of at most `max` payload bytes (checked before
    /// anything is allocated) and verifies its CRC.
    ///
    /// # Errors
    ///
    /// `Limit` for a length over `max`, else as [`read_block`].
    pub fn section(&mut self, what: &'static str, max: u64) -> Result<Vec<u8>, CodecError> {
        let len = u64::from_le_bytes(self.take(what)?);
        Reader::count(len, max, what)?;
        let (payload, crc) = read_block(&mut self.r, len, what)?;
        self.digest = extend(extend(self.digest, &payload), &crc.to_le_bytes());
        Ok(payload)
    }

    /// Checks the footer against every byte read before it, then requires
    /// EOF.
    ///
    /// # Errors
    ///
    /// `Checksum` for a footer mismatch, `Format` for bytes after it.
    pub fn finish(mut self) -> Result<(), CodecError> {
        let computed = self.digest;
        let stored = u32::from_le_bytes(self.take("file footer")?);
        if stored != computed {
            return Err(CodecError::Checksum {
                section: "file",
                stored,
                computed,
            });
        }
        match self.r.read(&mut [0u8; 1]).map_err(CodecError::Io)? {
            0 => Ok(()),
            _ => Err(CodecError::Format("trailing bytes after footer".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let digest = data.chunks(7).fold(0, extend);
        assert_eq!(digest, crc32(&data));
    }

    #[test]
    fn every_single_byte_change_changes_the_crc() {
        let data: Vec<u8> = (0u16..256).map(|i| i as u8).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut mutated = data.clone();
            mutated[i] ^= 1;
            assert_ne!(crc32(&mutated), base, "flip at {i} undetected");
        }
    }

    proptest! {
        /// Any reads over any bytes, each drawn from one `u64`: a read
        /// returns its bytes and consumes exactly its width, or fails as
        /// `Truncated` and consumes nothing; `count` is `Limit` exactly
        /// above its (small) cap; `finish` is `Ok` exactly when every byte
        /// was consumed. Nothing panics.
        #[test]
        fn reader_is_total_and_exact(
            buf in prop::collection::vec(any::<u8>(), 0..64),
            ops in prop::collection::vec(any::<u64>(), 0..24),
        ) {
            let mut rd = Reader::new(&buf, "field");
            let mut pos = 0usize;
            for op in ops {
                let n = (op >> 8) as usize % 40;
                let le = |b: &[u8]| b.to_vec();
                let (width, got) = match op % 9 {
                    0 => (n, rd.bytes(n).map(le)),
                    1 => (1, rd.u8().map(|v| vec![v])),
                    2 => (2, rd.u16().map(|v| le(&v.to_le_bytes()))),
                    3 => (4, rd.u32().map(|v| le(&v.to_le_bytes()))),
                    4 => (8, rd.u64().map(|v| le(&v.to_le_bytes()))),
                    5 => (4, rd.f32().map(|v| le(&v.to_le_bytes()))),
                    6 => (8, rd.f64().map(|v| le(&v.to_le_bytes()))),
                    7 => {
                        let n = if n == 39 { usize::MAX } else { n % 12 };
                        let floats = rd.f32s(n);
                        (n.saturating_mul(4), floats.map(|v| v.iter().flat_map(|x| x.to_le_bytes()).collect()))
                    }
                    _ => {
                        let (value, cap) = (n as u64 % 20, (op >> 16) % 10);
                        match Reader::count(value, cap, "count") {
                            Ok(c) => prop_assert!(c as u64 == value && value <= cap),
                            Err(CodecError::Limit { value: v, max, .. }) => {
                                prop_assert!(v == value && max == cap && value > cap)
                            }
                            Err(e) => prop_assert!(false, "count: {e:?}"),
                        }
                        continue;
                    }
                };
                match got {
                    Ok(bytes) => {
                        prop_assert_eq!(&bytes[..], &buf[pos..pos + width]);
                        pos += width;
                    }
                    Err(CodecError::Truncated("field")) => {
                        prop_assert!(width > buf.len() - pos)
                    }
                    Err(e) => prop_assert!(false, "{e:?}"),
                }
                prop_assert_eq!(rd.remaining(), buf.len() - pos);
            }
            match rd.finish() {
                Ok(()) => prop_assert_eq!(pos, buf.len()),
                Err(CodecError::TrailingBytes(n)) => {
                    prop_assert!(n > 0 && n == buf.len() - pos)
                }
                Err(e) => prop_assert!(false, "finish: {e:?}"),
            }
        }
    }
}

//! Binary persistence for trained quantizers.
//!
//! Training a product quantizer over millions of vectors takes minutes;
//! production deployments train once and serve many processes. This module
//! defines a small versioned little-endian format (`docs/FORMAT.md` has the
//! full specification):
//!
//! ```text
//! magic   "PQFS"                      4 bytes
//! version u32                         currently 3
//! header  section                     dim u64, m u64, nbits u8
//! codebooks section                   m × (ksub × dsub) f32, row-major
//! footer  u32                         CRC-32 of every preceding byte
//! ```
//!
//! Each *section* is length-prefixed (`u64`), CRC-32-checksummed, and its
//! length is validated against the expected size **before** any allocation
//! — a corrupt length prefix produces a typed error, never an OOM abort.
//! The trailing footer covers the whole file, so any single-byte flip or
//! truncation anywhere fails the load: every byte a loader accepts is
//! CRC-covered.
//!
//! [`save_pq_file`] writes **atomically**: the bytes go to a sibling
//! temporary file which is fsynced and then renamed over the destination,
//! so a crash mid-save never leaves a half-written artifact under the
//! published name.
//!
//! The format stores exactly the information [`ProductQuantizer`] holds; a
//! loaded quantizer is bit-identical to the saved one (encode/decode/ADC
//! all agree).
//!
//! Failpoint sites (see `pqfs_fault`): `core.persist.read`,
//! `core.persist.write`, `core.persist.create`, `core.persist.fsync`,
//! `core.persist.rename`.

use crate::checksum::{crc32, CrcRead, CrcWrite};
use crate::codebook::Codebook;
use crate::config::PqConfig;
use crate::pq::ProductQuantizer;
use crate::PqError;
use pqfs_fault::{FaultRead, FaultWrite};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PQFS";
/// The one version written and read. Versions 1 and 2 (no checksums) are
/// refused.
const VERSION: u32 = 3;
/// Oversized-header guard: dimensions above this are rejected before any
/// codebook allocation is attempted.
pub(crate) const MAX_DIM: u64 = 1 << 20;

/// Errors from quantizer persistence.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structurally invalid or incompatible file.
    Format(String),
    /// The stored configuration is invalid.
    Config(PqError),
    /// A stored checksum does not match the data (bit rot, torn write).
    Checksum {
        /// Which checksummed region failed ("header", "codebooks", "file", …).
        section: &'static str,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the data actually read.
        computed: u32,
    },
    /// A stored size exceeds the sanity limit for its field; the load is
    /// rejected before attempting the allocation.
    Limit {
        /// The offending field.
        what: &'static str,
        /// The stored value.
        value: u64,
        /// The maximum this implementation accepts.
        max: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format(msg) => write!(f, "format error: {msg}"),
            PersistError::Config(e) => write!(f, "stored configuration invalid: {e}"),
            PersistError::Checksum {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            PersistError::Limit { what, value, max } => {
                write!(f, "{what} {value} exceeds the sanity limit {max}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// The reader's error, `UnexpectedEof` on a short read.
pub fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// The reader's error, `UnexpectedEof` on a short read.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Maps an EOF during a structured read to a typed truncation error.
pub fn truncated(what: &'static str, e: io::Error) -> PersistError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        PersistError::Format(format!("truncated {what}"))
    } else {
        PersistError::Io(e)
    }
}

/// Reads exactly `len` bytes, growing the buffer in bounded increments so
/// a lying length prefix on a short file errors out after at most one
/// chunk of over-allocation instead of OOM-aborting up front.
pub fn read_exact_vec(
    r: &mut impl Read,
    len: u64,
    what: &'static str,
) -> Result<Vec<u8>, PersistError> {
    const CHUNK: u64 = 1 << 22; // 4 MiB
    let mut buf = Vec::new();
    let mut left = len;
    while left > 0 {
        let take = left.min(CHUNK) as usize;
        let old = buf.len();
        buf.resize(old + take, 0);
        r.read_exact(&mut buf[old..])
            .map_err(|e| truncated(what, e))?;
        left -= take as u64;
    }
    Ok(buf)
}

/// Writes one v3 section: `len u64 | bytes | crc32(bytes) u32`.
pub fn write_section(w: &mut impl Write, bytes: &[u8]) -> io::Result<()> {
    w.write_all(&(bytes.len() as u64).to_le_bytes())?;
    w.write_all(bytes)?;
    w.write_all(&crc32(bytes).to_le_bytes())?;
    Ok(())
}

/// Reads one v3 section whose byte length must equal `expected_len`
/// exactly, verifying its checksum.
pub fn read_section(
    r: &mut impl Read,
    what: &'static str,
    expected_len: u64,
) -> Result<Vec<u8>, PersistError> {
    let len = read_u64(r).map_err(|e| truncated(what, e))?;
    if len != expected_len {
        return Err(PersistError::Format(format!(
            "{what} section is {len} bytes, expected {expected_len}"
        )));
    }
    read_section_body(r, what, len)
}

/// Reads the `len` bytes of a section whose length prefix the caller has
/// read and checked, then the CRC-32 that follows them, and verifies it.
///
/// # Errors
///
/// [`PersistError::Format`] on truncation, [`PersistError::Checksum`] when
/// the stored and computed checksums disagree.
pub fn read_section_body(
    r: &mut impl Read,
    what: &'static str,
    len: u64,
) -> Result<Vec<u8>, PersistError> {
    let bytes = read_exact_vec(r, len, what)?;
    let stored = read_u32(r).map_err(|e| truncated(what, e))?;
    let computed = crc32(&bytes);
    if stored != computed {
        return Err(PersistError::Checksum {
            section: what,
            stored,
            computed,
        });
    }
    Ok(bytes)
}

/// Decodes a packed little-endian `f32` buffer, rejecting non-finite
/// values (corruption in a float section that a checksum bypass could
/// otherwise smuggle into distance computations).
pub fn decode_f32s(bytes: &[u8], what: &'static str) -> Result<Vec<f32>, PersistError> {
    let floats: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    if floats.iter().any(|v| !v.is_finite()) {
        return Err(PersistError::Format(format!("non-finite value in {what}")));
    }
    Ok(floats)
}

/// Writes a trained quantizer to `w` in format v3 (checksummed sections
/// plus a whole-file footer checksum).
///
/// # Errors
///
/// [`PersistError::Io`] on write failures.
pub fn save_pq(pq: &ProductQuantizer, w: &mut impl Write) -> Result<(), PersistError> {
    let mut cw = CrcWrite::new(&mut *w);
    cw.write_all(MAGIC)?;
    cw.write_all(&VERSION.to_le_bytes())?;

    let cfg = pq.config();
    let mut header = Vec::with_capacity(17);
    header.extend_from_slice(&(cfg.dim() as u64).to_le_bytes());
    header.extend_from_slice(&(cfg.m() as u64).to_le_bytes());
    header.push(cfg.nbits());
    write_section(&mut cw, &header)?;

    let mut codebooks = Vec::with_capacity(cfg.ksub() * cfg.dim() * 4);
    for j in 0..cfg.m() {
        for &v in pq.codebook(j).centroids() {
            codebooks.extend_from_slice(&v.to_le_bytes());
        }
    }
    write_section(&mut cw, &codebooks)?;

    let footer = cw.crc();
    w.write_all(&footer.to_le_bytes())?;
    Ok(())
}

/// Reads a quantizer previously written by [`save_pq`].
///
/// # Errors
///
/// [`PersistError::Format`] for bad magic/version/truncation/trailing
/// bytes, [`PersistError::Checksum`] when stored and computed checksums
/// disagree, [`PersistError::Limit`] for absurd stored sizes, and
/// [`PersistError::Config`] if the stored shape is invalid.
pub fn load_pq(r: &mut impl Read) -> Result<ProductQuantizer, PersistError> {
    let mut cr = CrcRead::new(&mut *r);
    let mut magic = [0u8; 4];
    cr.read_exact(&mut magic)
        .map_err(|e| truncated("magic", e))?;
    if &magic != MAGIC {
        return Err(PersistError::Format(format!("bad magic {magic:?}")));
    }
    let version = read_u32(&mut cr).map_err(|e| truncated("version", e))?;
    if version != VERSION {
        return Err(PersistError::Format(format!(
            "unsupported version {version} (this build reads {VERSION})"
        )));
    }

    let header = read_section(&mut cr, "quantizer header", 17)?;
    let dim = le_u64(&header[0..8]);
    let m = le_u64(&header[8..16]);
    let config = parse_header(dim, m, header[16])?;

    let expected = config.m() as u64 * config.ksub() as u64 * config.dsub() as u64 * 4;
    let bytes = read_section(&mut cr, "codebooks", expected)?;
    let floats = decode_f32s(&bytes, "codebooks")?;

    let computed = cr.crc();
    let inner = cr.into_inner();
    let stored = read_u32(inner).map_err(|e| truncated("file footer", e))?;
    if stored != computed {
        return Err(PersistError::Checksum {
            section: "file",
            stored,
            computed,
        });
    }
    expect_eof(inner)?;
    Ok(build_codebooks(config, floats))
}

/// Parses the 17-byte header payload into a validated configuration.
fn parse_header(dim: u64, m: u64, nbits: u8) -> Result<PqConfig, PersistError> {
    if dim > MAX_DIM {
        return Err(PersistError::Limit {
            what: "dimension",
            value: dim,
            max: MAX_DIM,
        });
    }
    if m > dim {
        return Err(PersistError::Format(format!(
            "sub-quantizer count {m} exceeds dimension {dim}"
        )));
    }
    let config = PqConfig::new(dim as usize, m as usize, nbits).map_err(PersistError::Config)?;
    if !config.trainable() {
        return Err(PersistError::Format(format!(
            "stored nbits {nbits} exceeds the byte-code limit"
        )));
    }
    Ok(config)
}

/// Splits a decoded codebook float buffer into per-sub-quantizer codebooks.
fn build_codebooks(config: PqConfig, floats: Vec<f32>) -> ProductQuantizer {
    let per = config.ksub() * config.dsub();
    let codebooks = floats
        .chunks_exact(per)
        .map(|c| Codebook::new(c.to_vec(), config.dsub()))
        .collect();
    ProductQuantizer::from_codebooks(config, codebooks)
}

/// Little-endian `u64` from an 8-byte slice (callers slice exact lengths
/// out of already length-checked buffers, so the conversion cannot fail).
pub fn le_u64(bytes: &[u8]) -> u64 {
    let arr: [u8; 8] = bytes
        .try_into()
        .unwrap_or_else(|_| unreachable!("caller slices exactly 8 bytes"));
    u64::from_le_bytes(arr)
}

/// Rejects trailing garbage so corrupted files fail loudly.
pub fn expect_eof(r: &mut impl Read) -> Result<(), PersistError> {
    let mut probe = [0u8; 1];
    match r.read(&mut probe)? {
        0 => Ok(()),
        _ => Err(PersistError::Format("trailing bytes after footer".into())),
    }
}

/// The failpoint site names an [`atomic_write_file`] call probes.
#[derive(Debug, Clone, Copy)]
pub struct AtomicWriteSites {
    /// Probed before creating the temporary file.
    pub create: &'static str,
    /// Wraps every byte written ([`FaultWrite`]).
    pub write: &'static str,
    /// Probed before fsyncing the temporary file.
    pub fsync: &'static str,
    /// Probed before renaming it over the destination.
    pub rename: &'static str,
}

/// Crash-safe file replacement: writes through `write_fn` to a sibling
/// temporary file, fsyncs it, and renames it over `path`. On any failure
/// the temporary file is removed and the previous artifact at `path` is
/// left untouched — a reader never observes a half-written file.
///
/// # Errors
///
/// [`PersistError::Io`] on create/write/fsync/rename failures (including
/// injected ones), or whatever `write_fn` returns.
pub fn atomic_write_file<F>(
    path: impl AsRef<Path>,
    sites: AtomicWriteSites,
    write_fn: F,
) -> Result<(), PersistError>
where
    F: FnOnce(&mut io::BufWriter<FaultWrite<std::fs::File>>) -> Result<(), PersistError>,
{
    let path = path.as_ref();
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp: PathBuf = path.with_file_name(name);

    let result = (|| {
        pqfs_fault::check(sites.create)?;
        let file = std::fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(FaultWrite::new(file, sites.write));
        write_fn(&mut w)?;
        w.flush()?;
        let file = w.into_inner().map_err(|e| e.into_error())?.into_inner();
        pqfs_fault::check(sites.fsync)?;
        file.sync_all()?;
        drop(file);
        pqfs_fault::check(sites.rename)?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable: fsync the containing directory.
        #[cfg(unix)]
        {
            let dir = match path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => Path::new("."),
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Saves a quantizer to a file, atomically (temp file + fsync + rename).
///
/// # Errors
///
/// [`PersistError::Io`] on any IO failure; the destination is left
/// untouched in that case.
pub fn save_pq_file(pq: &ProductQuantizer, path: impl AsRef<Path>) -> Result<(), PersistError> {
    atomic_write_file(
        path,
        AtomicWriteSites {
            create: "core.persist.create",
            write: "core.persist.write",
            fsync: "core.persist.fsync",
            rename: "core.persist.rename",
        },
        |w| save_pq(pq, w),
    )
}

/// Loads a quantizer from a file.
///
/// # Errors
///
/// As [`load_pq`], plus [`PersistError::Io`] for open/read failures.
pub fn load_pq_file(path: impl AsRef<Path>) -> Result<ProductQuantizer, PersistError> {
    let file = std::fs::File::open(path)?;
    let mut r = io::BufReader::new(FaultRead::new(file, "core.persist.read"));
    load_pq(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained() -> ProductQuantizer {
        let mut rng = StdRng::seed_from_u64(77);
        let config = PqConfig::new(16, 4, 4).unwrap();
        let data: Vec<f32> = (0..300 * 16)
            .map(|_| rng.gen_range(0.0f32..255.0))
            .collect();
        ProductQuantizer::train(&data, &config, 3).unwrap()
    }

    #[test]
    fn roundtrip_preserves_quantizer_exactly() {
        let pq = trained();
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();
        let loaded = load_pq(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.config(), pq.config());
        for j in 0..4 {
            assert_eq!(loaded.codebook(j).centroids(), pq.codebook(j).centroids());
        }
        // Behavioral equality on a probe vector.
        let v = vec![42.5f32; 16];
        assert_eq!(loaded.encode(&v), pq.encode(&v));
    }

    #[test]
    fn file_roundtrip() {
        let _lock = pqfs_fault::exclusive();
        let pq = trained();
        let mut path = std::env::temp_dir();
        path.push(format!("pqfs-persist-{}.pqfs", std::process::id()));
        save_pq_file(&pq, &path).unwrap();
        let loaded = load_pq_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.config(), pq.config());
    }

    /// A current-format image whose header section stores `(dim, m, nbits)`
    /// under valid section and file CRCs, so the check that rejects it is
    /// the one on the stored values.
    fn image_with_header(dim: u64, m: u64, nbits: u8) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let mut header = Vec::new();
        header.extend_from_slice(&dim.to_le_bytes());
        header.extend_from_slice(&m.to_le_bytes());
        header.push(nbits);
        write_section(&mut buf, &header).unwrap();
        write_section(&mut buf, &[]).unwrap();
        let footer = crc32(&buf);
        buf.extend_from_slice(&footer.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let pq = trained();
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            load_pq(&mut bad_magic.as_slice()),
            Err(PersistError::Format(_))
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(matches!(
            load_pq(&mut bad_version.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn versions_without_checksums_are_refused() {
        let mut buf = Vec::new();
        save_pq(&trained(), &mut buf).unwrap();
        for version in [1u32, 2] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            match load_pq(&mut buf.as_slice()) {
                Err(PersistError::Format(msg)) => {
                    assert!(
                        msg.contains(&format!("unsupported version {version}")),
                        "{msg}"
                    )
                }
                other => panic!("version {version}: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let pq = trained();
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();

        let truncated = &buf[..buf.len() - 5];
        assert!(load_pq(&mut &truncated[..]).is_err());

        let mut padded = buf.clone();
        padded.push(0);
        assert!(matches!(
            load_pq(&mut padded.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn rejects_invalid_stored_config() {
        // dim 17 is not divisible by m 4.
        assert!(matches!(
            load_pq(&mut image_with_header(17, 4, 4).as_slice()),
            Err(PersistError::Config(_))
        ));
    }

    #[test]
    fn rejects_absurd_dimension_before_allocating() {
        // A header claiming a 2^60 dimension must fail on the Limit check,
        // not OOM trying to allocate codebooks.
        assert!(matches!(
            load_pq(&mut image_with_header(1 << 60, 8, 8).as_slice()),
            Err(PersistError::Limit { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_centroids() {
        let pq = trained();
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();
        // Overwrite the first centroid float with NaN and repair both the
        // section and footer checksums, isolating the finiteness check.
        let sec = 4 + 4 + 8 + 17 + 4 + 8; // magic+ver+hdr section+codebook len
        buf[sec..sec + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let cb_len = buf.len() - sec - 4 - 4; // minus section crc and footer
        let crc = crc32(&buf[sec..sec + cb_len]);
        let crc_pos = sec + cb_len;
        buf[crc_pos..crc_pos + 4].copy_from_slice(&crc.to_le_bytes());
        let footer = crc32(&buf[..buf.len() - 4]);
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&footer.to_le_bytes());
        assert!(matches!(
            load_pq(&mut buf.as_slice()),
            Err(PersistError::Format(_))
        ));
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let pq = trained();
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();
        // Flip one codebook byte: the section checksum catches it first.
        let sec = 4 + 4 + 8 + 17 + 4 + 8;
        buf[sec] ^= 1;
        assert!(matches!(
            load_pq(&mut buf.as_slice()),
            Err(PersistError::Checksum { .. })
        ));
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn failed_save_leaves_the_previous_artifact_intact() {
        let _lock = pqfs_fault::exclusive();
        let pq = trained();
        let mut path = std::env::temp_dir();
        path.push(format!("pqfs-atomic-{}.pqfs", std::process::id()));
        save_pq_file(&pq, &path).unwrap();

        for site in [
            "core.persist.create",
            "core.persist.write",
            "core.persist.fsync",
            "core.persist.rename",
        ] {
            let _g = pqfs_fault::scoped(site, pqfs_fault::FaultAction::Error);
            let err = save_pq_file(&pq, &path).unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "{site}: {err}");
            // The previously published artifact still loads.
            let loaded = load_pq_file(&path).unwrap();
            assert_eq!(loaded.config(), pq.config(), "{site}");
        }
        // A torn write (short_write) must also leave the artifact intact
        // and clean up its temp file.
        {
            let _g = pqfs_fault::scoped(
                "core.persist.write",
                pqfs_fault::FaultAction::ShortWrite(100),
            );
            assert!(save_pq_file(&pq, &path).is_err());
            assert!(load_pq_file(&path).is_ok());
        }
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("pqfs-atomic-{}.pqfs.tmp", std::process::id()))
            })
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

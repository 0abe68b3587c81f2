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
//! The container, its CRC-32 sections and the footer are
//! [`crate::codec`]'s, which checks every length **before** allocating.
//! A loaded quantizer is bit-identical to the saved one. The index file
//! (`pqfs_ivf`) embeds this image and is written through
//! [`atomic_write_file`] (temp file, fsync, rename), so a crash mid-save
//! never leaves a half-written artifact under the published name.

use crate::codebook::Codebook;
use crate::codec::{write_file, CodecError, FileReader, Put, Reader};
use crate::config::PqConfig;
use crate::pq::ProductQuantizer;
use crate::PqError;
use pqfs_fault::FaultWrite;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"PQFS";
/// The one version written and read. Versions 1 and 2 (no checksums) are
/// refused.
const VERSION: u32 = 3;
/// Oversized-header guard: dimensions above this are rejected before any
/// codebook allocation is attempted.
const MAX_DIM: u64 = 1 << 20;

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

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => PersistError::Io(e),
            CodecError::Truncated(what) => PersistError::Format(format!("truncated {what}")),
            CodecError::TrailingBytes(n) => {
                PersistError::Format(format!("{n} trailing bytes in a section"))
            }
            CodecError::Limit { what, value, max } => PersistError::Limit { what, value, max },
            CodecError::Checksum {
                section,
                stored,
                computed,
            } => PersistError::Checksum {
                section,
                stored,
                computed,
            },
            CodecError::Format(msg) => PersistError::Format(msg),
        }
    }
}

/// Writes a trained quantizer to `w` in format v3 (checksummed sections
/// plus a whole-file footer checksum).
///
/// # Errors
///
/// [`PersistError::Io`] on write failures.
pub fn save_pq(pq: &ProductQuantizer, w: &mut impl Write) -> Result<(), PersistError> {
    let cfg = pq.config();
    let mut header = Vec::with_capacity(17);
    header.put_u64(cfg.dim() as u64);
    header.put_u64(cfg.m() as u64);
    header.put_u8(cfg.nbits());
    let mut codebooks = Vec::with_capacity(cfg.ksub() * cfg.dim() * 4);
    for j in 0..cfg.m() {
        codebooks.put_f32s(pq.codebook(j).centroids());
    }
    Ok(write_file(w, MAGIC, VERSION, [header, codebooks])?)
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
    // Exact-size caps: a read that succeeds consumes the whole section.
    let mut file = FileReader::open(r, MAGIC, VERSION)?;
    let header = file.section("quantizer header", 17)?;
    let mut rd = Reader::new(&header, "quantizer header");
    let (dim, m, nbits) = (rd.u64()?, rd.u64()?, rd.u8()?);
    Reader::count(dim, MAX_DIM, "dimension")?;
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

    let per = config.ksub() * config.dsub();
    let n = config.m() * per;
    let bytes = file.section("codebooks", n as u64 * 4)?;
    let floats = Reader::new(&bytes, "codebooks").f32s(n)?;
    if floats.iter().any(|v| !v.is_finite()) {
        return Err(PersistError::Format("non-finite value in codebooks".into()));
    }
    file.finish()?;
    let codebooks = floats
        .chunks_exact(per)
        .map(|c| Codebook::new(c.to_vec(), config.dsub()))
        .collect();
    Ok(ProductQuantizer::from_codebooks(config, codebooks))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;
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

    /// The bytes of a hand-built image, pinned by length and CRC: a writer
    /// change that moves one byte fails here, which no round trip shows.
    #[test]
    fn golden_pqfs_image() {
        let config = PqConfig::new(4, 2, 2).unwrap();
        let codebooks = (0..2)
            .map(|j| Codebook::new((0..8).map(|i| (j * 8 + i) as f32 * 0.25 - 1.0).collect(), 2))
            .collect();
        let pq = ProductQuantizer::from_codebooks(config, codebooks);
        let mut buf = Vec::new();
        save_pq(&pq, &mut buf).unwrap();
        // The CRC of a whole image is the CRC-32 residue for any valid footer,
        // so the pin is the CRC of the bytes the footer covers.
        let body = &buf[..buf.len() - 4];
        assert_eq!((buf.len(), crc32(body)), (117, 0xB449_D617));
        let loaded = load_pq(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.codebook(1).centroids(), pq.codebook(1).centroids());
    }

    /// A current-format image whose header section stores `(dim, m, nbits)`
    /// and whose codebooks section holds `codebooks`, under valid section
    /// and file CRCs, so the check that rejects it is the one on the stored
    /// values.
    fn image(dim: u64, m: u64, nbits: u8, codebooks: Vec<u8>) -> Vec<u8> {
        let mut header = Vec::new();
        header.put_u64(dim);
        header.put_u64(m);
        header.put_u8(nbits);
        let mut buf = Vec::new();
        write_file(&mut buf, MAGIC, VERSION, [header, codebooks]).unwrap();
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
            load_pq(&mut image(17, 4, 4, Vec::new()).as_slice()),
            Err(PersistError::Config(_))
        ));
    }

    #[test]
    fn rejects_absurd_dimension_before_allocating() {
        // A header claiming a 2^60 dimension must fail on the Limit check,
        // not OOM trying to allocate codebooks.
        assert!(matches!(
            load_pq(&mut image(1 << 60, 8, 8, Vec::new()).as_slice()),
            Err(PersistError::Limit { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_centroids() {
        // PQ 4x4 over dim 16: 4 codebooks of 16 centroids of 4 floats.
        let mut codebooks = vec![0u8; 4 * 16 * 4 * 4];
        codebooks[..4].copy_from_slice(&f32::NAN.to_le_bytes());
        match load_pq(&mut image(16, 4, 4, codebooks).as_slice()) {
            Err(PersistError::Format(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            other => panic!("{:?}", other.map(|_| ())),
        }
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
}

//! Binary persistence for a built IVFADC index, the one file format the
//! workspace writes.
//!
//! Building an index over a large base set costs minutes of training and
//! encoding; serving processes load the finished artifact instead. The
//! format is little-endian and versioned (`docs/FORMAT.md` has the full
//! specification):
//!
//! ```text
//! magic   "PQIV"           4 bytes
//! version u32              currently 4
//! header  section          dim u64, partitions u64
//! centroids section        partitions × dim × f32
//! codebooks section        8 × 256 × dim/8 f32 (the PQ 8×8 codebooks)
//! partition sections       one per partition: count u64, ids, codes
//! footer  u32              CRC-32 of every preceding byte
//! ```
//!
//! The container, its CRC-32 sections and the footer are
//! `pqfs_core::codec`'s; lengths and counts are checked against each other
//! and against sanity limits **before** allocating. An index is `PQ 8×8`,
//! so the quantizer's shape follows from `dim` and is not stored.
//! [`IvfadcIndex::save_file`] writes **atomically** (temp file, fsync,
//! rename).
//!
//! Partition sections hold row-major codes: [`IvfadcIndex::save`] rebuilds
//! them from the resident grouped layout and [`IvfadcIndex::load`] regroups
//! them as a build does (grouping is deterministic, so save → load → save
//! reproduces the file).
//!
//! Failpoint sites (see `pqfs_fault`): `ivf.persist.read`,
//! `ivf.persist.write`, `ivf.persist.create`, `ivf.persist.fsync`,
//! `ivf.persist.rename`.

use crate::coarse::CoarseQuantizer;
use crate::index::{IvfadcIndex, MAX_PARTITIONS};
use pqfs_core::codec::{write_file, CodecError, FileReader, Put, Reader};
use pqfs_core::{Codebook, PqConfig, ProductQuantizer};
use pqfs_fault::{FaultRead, FaultWrite};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PQIV";
/// The one version written and read. Versions 1 and 2 had no checksums;
/// version 3 nested the quantizer in a file of its own and kept reserved
/// header slots. All three are refused.
const VERSION: u32 = 4;

/// Sanity limits applied before any size-driven allocation (the partition
/// count's also bounds the expansion terms derived at load).
const MAX_DIM: u64 = 1 << 20;
const MAX_PARTITION_SECTION: u64 = 1 << 40;

/// Errors from index persistence.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structurally invalid or incompatible file.
    Format(String),
    /// A stored checksum does not match the data (bit rot, torn write).
    Checksum {
        /// Which checksummed region failed ("index header", "codebooks",
        /// "file", …).
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

/// Reads a section of packed floats that must all be finite.
fn finite_f32s<R: Read>(
    file: &mut FileReader<R>,
    what: &'static str,
    n: usize,
) -> Result<Vec<f32>, PersistError> {
    let bytes = file.section(what, n as u64 * 4)?;
    let floats = Reader::new(&bytes, what).f32s(n)?;
    if floats.iter().any(|v| !v.is_finite()) {
        return Err(PersistError::Format(format!("non-finite value in {what}")));
    }
    Ok(floats)
}

impl IvfadcIndex {
    /// Writes the index to `w` in format v4 (checksummed sections plus a
    /// whole-file footer checksum).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write failures.
    pub fn save(&self, w: &mut impl Write) -> Result<(), PersistError> {
        let dim = self.coarse().dim();
        let parts = self.num_partitions();
        let mut header = Vec::with_capacity(16);
        header.put_u64(dim as u64);
        header.put_u64(parts as u64);
        let mut centroids = Vec::with_capacity(parts * dim * 4);
        for p in 0..parts {
            centroids.put_f32s(self.coarse().centroid(p));
        }
        let mut codebooks = Vec::new();
        for j in 0..self.pq().config().m() {
            codebooks.put_f32s(self.pq().codebook(j).centroids());
        }
        // Partition sections are built one at a time as they are written.
        let partitions = (0..parts).map(|p| {
            let (ids, codes) = self.partition_rows(p);
            let mut payload = Vec::with_capacity(8 + ids.len() * 8 + codes.as_bytes().len());
            payload.put_u64(ids.len() as u64);
            for &id in ids {
                payload.put_u64(id);
            }
            payload.put_bytes(codes.as_bytes());
            payload
        });
        let sections = [header, centroids, codebooks].into_iter().chain(partitions);
        Ok(write_file(w, MAGIC, VERSION, sections)?)
    }

    /// Reads an index previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// [`PersistError`] on IO failures, bad magic/version, truncation,
    /// checksum mismatches, absurd stored sizes, a dimension that is not a
    /// positive multiple of 8, or non-finite centroids — never a panic.
    pub fn load(r: &mut impl Read) -> Result<Self, PersistError> {
        // Exact-size caps: a read that succeeds consumes the whole section.
        let mut file = FileReader::open(r, MAGIC, VERSION)?;
        let header = file.section("index header", 16)?;
        let mut rd = Reader::new(&header, "index header");
        let (dim, parts) = (rd.u64()?, rd.u64()?);
        let dim = Reader::count(dim, MAX_DIM, "dimension")?;
        let parts = Reader::count(parts, MAX_PARTITIONS as u64, "partition count")?;
        if parts == 0 {
            return Err(PersistError::Format("empty partition count".into()));
        }
        // An index is `PQ 8×8`: its shape follows from `dim`.
        let config = PqConfig::new(dim, 8, 8)
            .map_err(|e| PersistError::Format(format!("index header: {e}")))?;
        let (m, dsub) = (config.m(), config.dsub());

        // ≤ 2^46 bytes by the limits above.
        let centroids = finite_f32s(&mut file, "coarse centroids", parts * dim)?;
        let codebooks = finite_f32s(&mut file, "codebooks", config.ksub() * dim)?;

        let mut partitions = Vec::with_capacity(parts);
        for _ in 0..parts {
            let payload = file.section("partition", MAX_PARTITION_SECTION)?;
            let mut rd = Reader::new(&payload, "partition");
            let len = rd.u64()?;
            if len.checked_mul(8 + m as u64) != Some(rd.remaining() as u64) {
                return Err(PersistError::Format(format!(
                    "partition claims {len} vectors but holds {} payload bytes",
                    payload.len()
                )));
            }
            let ids = rd.bytes(len as usize * 8)?.chunks_exact(8);
            let id = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap_or_default());
            partitions.push((ids.map(id).collect(), rd.bytes(rd.remaining())?.to_vec()));
        }
        file.finish()?;

        let codebooks = codebooks
            .chunks_exact(config.ksub() * dsub)
            .map(|c| Codebook::new(c.to_vec(), dsub))
            .collect();
        IvfadcIndex::from_parts(
            CoarseQuantizer::from_centroids(centroids, dim),
            ProductQuantizer::from_codebooks(config, codebooks),
            partitions,
        )
        .map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Saves to a file, atomically: writes a sibling temporary file, fsyncs
    /// it and renames it over `path`. On any failure the temporary file is
    /// removed and the previously published artifact is left untouched — a
    /// reader never observes a half-written file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on create/write/fsync/rename failures
    /// (including injected ones).
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let path = path.as_ref();
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(format!(".tmp.{}", std::process::id()));
        let tmp = path.with_file_name(name);

        let result = (|| {
            pqfs_fault::check("ivf.persist.create")?;
            let file = std::fs::File::create(&tmp)?;
            let mut w = io::BufWriter::new(FaultWrite::new(file, "ivf.persist.write"));
            self.save(&mut w)?;
            w.flush()?;
            let file = w.into_inner().map_err(|e| e.into_error())?.into_inner();
            pqfs_fault::check("ivf.persist.fsync")?;
            file.sync_all()?;
            drop(file);
            pqfs_fault::check("ivf.persist.rename")?;
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

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load), plus [`PersistError::Io`] for open/read
    /// failures.
    pub fn load_file(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let file = std::fs::File::open(path)?;
        let mut r = io::BufReader::new(FaultRead::new(file, "ivf.persist.read"));
        Self::load(&mut r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IvfadcConfig, SearchBackend};
    use pqfs_core::codec::crc32;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 16;

    fn build() -> (IvfadcIndex, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(55);
        let gen = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            (0..n * DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect()
        };
        let train = gen(&mut rng, 1000);
        let base = gen(&mut rng, 400);
        let index = IvfadcIndex::build(&train, &base, &IvfadcConfig::new(DIM, 4)).unwrap();
        (index, base)
    }

    /// A current-format image of `sections` under valid section and file
    /// CRCs, so the check that rejects it is the one on the stored values.
    fn image(sections: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_file(&mut buf, MAGIC, VERSION, sections).unwrap();
        buf
    }

    fn header(dim: u64, parts: u64) -> Vec<u8> {
        let mut header = Vec::new();
        header.put_u64(dim);
        header.put_u64(parts);
        header
    }

    /// `n` packed floats, all 1.0 but a NaN at `nan_at`.
    fn floats(n: usize, nan_at: Option<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            out.put_f32(if Some(i) == nan_at { f32::NAN } else { 1.0 });
        }
        out
    }

    /// A hand-built index: PQ 8×8 over dim 16 whose codebook floats are
    /// `(k % 97) × 0.5` in storage order `k`, two fixed coarse centroids,
    /// and fixed ids and codes in two partitions.
    fn golden_index() -> IvfadcIndex {
        let config = PqConfig::new(DIM, 8, 8).unwrap();
        let codebooks = (0..8)
            .map(|j| {
                let floats = (0..512).map(|i| ((j * 512 + i) % 97) as f32 * 0.5);
                Codebook::new(floats.collect(), 2)
            })
            .collect();
        let pq = ProductQuantizer::from_codebooks(config, codebooks);
        let centroids = (0..2 * DIM).map(|i| i as f32 - 7.25).collect();
        let rows = |ids: Vec<u64>, p: usize| {
            let codes = (0..ids.len() * 8)
                .map(|i| (p * 31 + i * 13) as u8)
                .collect();
            (ids, codes)
        };
        IvfadcIndex::from_parts(
            CoarseQuantizer::from_centroids(centroids, DIM),
            pq,
            vec![rows(vec![5, 2, 9], 0), rows(vec![1, 7], 1)],
        )
        .unwrap()
    }

    /// The bytes of [`golden_index`], pinned by length and CRC: a writer
    /// change that moves one byte fails here, which no round trip shows.
    #[test]
    fn golden_pqiv_image() {
        let mut buf = Vec::new();
        golden_index().save(&mut buf).unwrap();
        // Magic and version 8, then each section's u64 length, payload and
        // CRC: header 8 + 16 + 4, centroids 8 + 2 × 16 × 4 + 4, codebooks
        // 8 + 8 × 256 × 2 × 4 + 4, partitions 8 + (8 + 3 × 16) + 4 and
        // 8 + (8 + 2 × 16) + 4, footer 4: 16 696 bytes. The CRC of a whole
        // image is the CRC-32 residue for any valid footer, so the pin is the
        // CRC of the bytes the footer covers.
        let body = &buf[..buf.len() - 4];
        assert_eq!((buf.len(), crc32(body)), (16_696, 0xC3DB_9BC4));
        let mut again = Vec::new();
        IvfadcIndex::load(&mut buf.as_slice())
            .unwrap()
            .save(&mut again)
            .unwrap();
        assert_eq!(again, buf);
    }

    /// The PQ Fast Scan quantizer's bytes inside [`golden_index`]'s image,
    /// byte for byte: the codebooks section follows the header and
    /// centroids sections and holds the 8 codebooks in order, each as its
    /// 256 centroids of 2 little-endian f32s, under its own CRC.
    #[test]
    fn golden_pqfs_image() {
        let mut buf = Vec::new();
        golden_index().save(&mut buf).unwrap();
        // Magic and version, header 8 + 16 + 4, centroids 8 + 2 × 16 × 4 + 4.
        let at = 8 + 28 + 140;
        let len = u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize;
        assert_eq!(len, 8 * 256 * 2 * 4);
        let payload = &buf[at + 8..at + 8 + len];
        let want: Vec<u8> = (0..8 * 256 * 2)
            .flat_map(|k| ((k % 97) as f32 * 0.5).to_le_bytes())
            .collect();
        assert_eq!(payload, &want[..]);
        let crc = &buf[at + 8 + len..at + 12 + len];
        assert_eq!(u32::from_le_bytes(crc.try_into().unwrap()), crc32(payload));
    }

    /// Save → load keeps every codebook and coarse centroid bit for bit,
    /// so the loaded quantizer encodes as the saved one does.
    #[test]
    fn roundtrip_preserves_quantizer_exactly() {
        let (index, base) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.pq().config(), index.pq().config());
        for j in 0..index.pq().config().m() {
            let bits = |pq: &ProductQuantizer| -> Vec<u32> {
                pq.codebook(j)
                    .centroids()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(loaded.pq()), bits(index.pq()), "codebook {j}");
        }
        for p in 0..index.num_partitions() {
            assert_eq!(loaded.coarse().centroid(p), index.coarse().centroid(p));
        }
        for v in [&[42.5f32; DIM][..], &base[..DIM]] {
            assert_eq!(loaded.pq().encode(v), index.pq().encode(v));
        }
    }

    #[test]
    fn roundtrip_preserves_search_results_and_the_file() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        assert_eq!(again, buf, "save -> load -> save must reproduce the file");

        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.partition_sizes(), index.partition_sizes());
        for qi in (0..400).step_by(37) {
            let q = &base[qi * DIM..(qi + 1) * DIM];
            for backend in SearchBackend::ALL {
                let a = index.search_probes(q, 7, backend, 0.01, 1).unwrap();
                let b = loaded.search_probes(q, 7, backend, 0.01, 1).unwrap();
                let ids = |o: &crate::index::SearchOutcome| {
                    o.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
                };
                assert_eq!(ids(&a), ids(&b), "query {qi}");
            }
        }
    }

    /// Versions 1 and 2 had no checksums; version 3 had them but nested
    /// the quantizer in a file of its own. None of them loads.
    #[test]
    fn versions_without_checksums_are_refused() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        for version in [1u32, 2, 3] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            match IvfadcIndex::load(&mut buf.as_slice()) {
                Err(PersistError::Format(msg)) => {
                    assert!(
                        msg.contains(&format!("unsupported version {version}")),
                        "{msg}"
                    )
                }
                other => panic!("version {version}: {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn empty_base_index_roundtrips() {
        let mut rng = StdRng::seed_from_u64(58);
        let train: Vec<f32> = (0..1000 * DIM)
            .map(|_| rng.gen_range(0.0f32..255.0))
            .collect();
        let index = IvfadcIndex::build(&train, &[], &IvfadcConfig::new(DIM, 2)).unwrap();
        assert!(index.is_empty());

        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let _lock = pqfs_fault::exclusive();
        let (index, _) = build();
        let mut path = std::env::temp_dir();
        path.push(format!("pqfs-ivf-{}.pqiv", std::process::id()));
        index.save_file(&path).unwrap();
        let loaded = IvfadcIndex::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), index.len());
    }

    #[test]
    fn rejects_corruption() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'Z';
        assert!(IvfadcIndex::load(&mut bad_magic.as_slice()).is_err());

        let truncated = &buf[..buf.len() / 2];
        assert!(IvfadcIndex::load(&mut &truncated[..]).is_err());
    }

    /// Loading `image` fails with a typed `Format` error.
    fn assert_format_error(image: &[u8], what: &str) {
        match IvfadcIndex::load(&mut &image[..]) {
            Err(PersistError::Format(_)) => {}
            other => panic!("{what}: {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert_format_error(&bad_magic, "bad magic");
        buf[4] = 99;
        assert_format_error(&buf, "version 99");
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_format_error(&buf[..buf.len() - 5], "truncated");
        buf.push(0);
        assert_format_error(&buf, "one trailing byte");
    }

    #[test]
    fn rejects_absurd_counts_before_allocating() {
        // A header section (its CRC valid) claiming 2^50 partitions, or
        // one more than the cap on the 8 KiB of expansion terms each cell
        // gets at load, must fail on the Limit check, not OOM allocating
        // centroid, partition or term buffers.
        for parts in [1 << 50, MAX_PARTITIONS as u64 + 1] {
            assert!(
                matches!(
                    IvfadcIndex::load(&mut image(&[header(16, parts)]).as_slice()),
                    Err(PersistError::Limit { .. })
                ),
                "{parts} partitions"
            );
        }
    }

    #[test]
    fn rejects_absurd_dimension_before_allocating() {
        // A header section (its CRC valid) claiming a dimension above 2^20,
        // all multiples of 8, must fail on the Limit check, not OOM
        // allocating centroid or codebook buffers.
        for dim in [1 << 21, 1 << 60, u64::MAX - 7] {
            assert!(
                matches!(
                    IvfadcIndex::load(&mut image(&[header(dim, 1)]).as_slice()),
                    Err(PersistError::Limit { .. })
                ),
                "dim {dim}"
            );
        }
    }

    /// An index is `PQ 8×8`: a dimension that is not a positive multiple
    /// of 8 has no such quantizer, and a header without partitions has no
    /// index.
    #[test]
    fn rejects_invalid_stored_config() {
        for (dim, parts) in [(12, 1), (0, 1), (16, 0)] {
            match IvfadcIndex::load(&mut image(&[header(dim, parts)]).as_slice()) {
                Err(PersistError::Format(_)) => {}
                other => panic!("dim {dim}, {parts} partitions: {:?}", other.map(|_| ())),
            }
        }
    }

    /// An index is `PQ 8×8`. An image whose sections are all intact but
    /// whose codebooks section holds a quantizer with fewer than 256
    /// centroids per sub-quantizer (PQ 8×4 or 8×6 over dim 16) is refused
    /// with a typed error naming the codebooks.
    #[test]
    fn an_embedded_quantizer_that_is_not_pq8x8_is_a_format_error() {
        for nbits in [4, 6] {
            let sections = [
                header(DIM as u64, 1),
                floats(DIM, None),
                floats((1 << nbits) * DIM, None),
                0u64.to_le_bytes().to_vec(),
            ];
            match IvfadcIndex::load(&mut image(&sections).as_slice()) {
                Err(PersistError::Format(msg)) => assert!(msg.contains("codebooks"), "{msg}"),
                other => panic!("PQ 8x{nbits}: {:?}", other.map(|_| ())),
            }
        }
    }

    /// A NaN in the coarse centroids or in the codebooks, under valid CRCs,
    /// is refused by name.
    #[test]
    fn rejects_non_finite_centroids() {
        let empty_partition = 0u64.to_le_bytes().to_vec();
        for (centroids, codebooks) in [(Some(3), None), (None, Some(4000))] {
            let sections = [
                header(DIM as u64, 1),
                floats(DIM, centroids),
                floats(256 * DIM, codebooks),
                empty_partition.clone(),
            ];
            match IvfadcIndex::load(&mut image(&sections).as_slice()) {
                Err(PersistError::Format(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
                other => panic!("{:?}", other.map(|_| ())),
            }
        }
        // The same sections without a NaN load.
        let sections = [
            header(DIM as u64, 1),
            floats(DIM, None),
            floats(256 * DIM, None),
            empty_partition,
        ];
        assert!(IvfadcIndex::load(&mut image(&sections).as_slice()).is_ok());
    }

    #[test]
    fn checksum_mismatch_is_a_typed_error() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Flip one codebook byte: the section checksum catches it first.
        // Magic and version, the header section, the centroids section of
        // 4 cells, then the codebooks' length.
        let codebooks_at = 8 + (8 + 16 + 4) + (8 + 4 * DIM * 4 + 4) + 8;
        buf[codebooks_at + 100] ^= 1;
        match IvfadcIndex::load(&mut buf.as_slice()) {
            Err(PersistError::Checksum { section, .. }) => assert_eq!(section, "codebooks"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn failed_save_leaves_the_previous_artifact_intact() {
        let _lock = pqfs_fault::exclusive();
        let (index, _) = build();
        let mut path = std::env::temp_dir();
        path.push(format!("pqfs-ivf-atomic-{}.pqiv", std::process::id()));
        index.save_file(&path).unwrap();
        for site in [
            "ivf.persist.create",
            "ivf.persist.write",
            "ivf.persist.fsync",
            "ivf.persist.rename",
        ] {
            let _g = pqfs_fault::scoped(site, pqfs_fault::FaultAction::Error);
            assert!(index.save_file(&path).is_err(), "{site}");
            assert!(IvfadcIndex::load_file(&path).is_ok(), "{site}");
        }
        {
            let _g = pqfs_fault::scoped(
                "ivf.persist.write",
                pqfs_fault::FaultAction::ShortWrite(1000),
            );
            assert!(index.save_file(&path).is_err());
            assert!(IvfadcIndex::load_file(&path).is_ok());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_read_faults_surface_as_typed_errors() {
        let _lock = pqfs_fault::exclusive();
        let (index, _) = build();
        let mut path = std::env::temp_dir();
        path.push(format!("pqfs-ivf-readfault-{}.pqiv", std::process::id()));
        index.save_file(&path).unwrap();

        {
            let _g = pqfs_fault::scoped("ivf.persist.read", pqfs_fault::FaultAction::Error);
            assert!(matches!(
                IvfadcIndex::load_file(&path),
                Err(PersistError::Io(_))
            ));
        }
        {
            let _g =
                pqfs_fault::scoped("ivf.persist.read", pqfs_fault::FaultAction::ShortRead(200));
            assert!(IvfadcIndex::load_file(&path).is_err());
        }
        {
            let _g = pqfs_fault::scoped("ivf.persist.read", pqfs_fault::FaultAction::BitFlip(321));
            assert!(IvfadcIndex::load_file(&path).is_err());
        }
        // Disarmed again: the artifact is fine.
        assert!(IvfadcIndex::load_file(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }
}

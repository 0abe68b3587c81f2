//! Binary persistence for a built IVFADC index.
//!
//! Building an index over a large base set costs minutes of training and
//! encoding; serving processes load the finished artifact instead. The
//! format is little-endian and versioned (`docs/FORMAT.md` has the full
//! specification):
//!
//! ```text
//! magic   "PQIV"           4 bytes
//! version u32              currently 3
//! header  section          dim u64, partitions u64, one reserved byte
//!                          (written 0), scan options (12 bytes)
//! centroids section        partitions × dim × f32
//! quantizer section        embedded pqfs-core persist format (v3)
//! partition sections       one per partition: count u64, ids, codes
//! footer  u32              CRC-32 of every preceding byte
//! ```
//!
//! The container, its CRC-32 sections and the footer are
//! `pqfs_core::codec`'s; lengths and counts are checked against each other
//! and against sanity limits **before** allocating. [`IvfadcIndex::save_file`]
//! writes **atomically** (temp file, fsync, rename).
//!
//! Partition sections hold row-major codes: [`IvfadcIndex::save`] rebuilds
//! them from the resident grouped layout and [`IvfadcIndex::load`] regroups
//! them under the stored scan options (grouping is deterministic, so save →
//! load → save reproduces the file). The reserved header byte was the
//! prepared-backend mask of earlier writers; it is not interpreted.
//!
//! Failpoint sites (see `pqfs_fault`): `ivf.persist.read`,
//! `ivf.persist.write`, `ivf.persist.create`, `ivf.persist.fsync`,
//! `ivf.persist.rename`.

use crate::coarse::CoarseQuantizer;
use crate::index::IvfadcIndex;
use pqfs_core::codec::{write_file, FileReader, Put, Reader};
use pqfs_core::persist::{atomic_write_file, load_pq, save_pq, AtomicWriteSites, PersistError};
use pqfs_fault::FaultRead;
use pqfs_scan::{Kernel, ScanOpts};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"PQIV";
const VERSION: u32 = 3;

/// Sanity limits applied before any size-driven allocation.
const MAX_DIM: u64 = 1 << 20;
const MAX_PARTITIONS: u64 = 1 << 24;
const MAX_QUANTIZER_SECTION: u64 = 1 << 32;
const MAX_PARTITION_SECTION: u64 = 1 << 40;

/// Encodes the scan options as the fixed 12-byte block.
fn put_scan_opts(out: &mut Vec<u8>, opts: &ScanOpts) {
    out.put_f64(opts.keep);
    out.put_u16(opts.bins);
    out.put_u8(match opts.group_components {
        Some(c) if c <= 4 => c as u8,
        _ => u8::MAX,
    });
    out.put_u8(match opts.kernel {
        Kernel::Auto => 0,
        Kernel::Portable => 1,
        Kernel::Ssse3 => 2,
        Kernel::Avx2 => 3,
        Kernel::Avx512Vbmi => 4,
    });
}

/// Decodes the fixed 12-byte scan-options block.
fn read_scan_opts(rd: &mut Reader<'_>) -> Result<ScanOpts, PersistError> {
    let keep = rd.f64()?;
    if !(0.0..=1.0).contains(&keep) {
        return Err(PersistError::Format(format!("keep {keep} outside [0, 1]")));
    }
    let bins = rd.u16()?;
    let group_components = match rd.u8()? {
        u8::MAX => None,
        c if c <= 4 => Some(c as usize),
        c => return Err(PersistError::Format(format!("bad group_components {c}"))),
    };
    let kernel = match rd.u8()? {
        0 => Kernel::Auto,
        1 => Kernel::Portable,
        2 => Kernel::Ssse3,
        3 => Kernel::Avx2,
        4 => Kernel::Avx512Vbmi,
        k => return Err(PersistError::Format(format!("bad kernel tag {k}"))),
    };
    Ok(ScanOpts {
        keep,
        bins,
        group_components,
        kernel,
    })
}

impl IvfadcIndex {
    /// Writes the index to `w` in format v3 (checksummed sections plus a
    /// whole-file footer checksum).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write failures.
    pub fn save(&self, w: &mut impl Write) -> Result<(), PersistError> {
        let dim = self.coarse().dim();
        let parts = self.num_partitions();
        let mut header = Vec::with_capacity(29);
        header.put_u64(dim as u64);
        header.put_u64(parts as u64);
        header.put_u8(0); // reserved
        put_scan_opts(&mut header, self.scan_opts());
        let mut centroids = Vec::with_capacity(parts * dim * 4);
        for p in 0..parts {
            centroids.put_f32s(self.coarse().centroid(p));
        }
        let mut quantizer = Vec::new();
        save_pq(self.pq(), &mut quantizer)?;
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
        let sections = [header, centroids, quantizer].into_iter().chain(partitions);
        Ok(write_file(w, MAGIC, VERSION, sections)?)
    }

    /// Reads an index previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// [`PersistError`] on IO failures, bad magic/version, truncation,
    /// checksum mismatches, absurd stored sizes, or an embedded quantizer
    /// that is invalid or not `PQ 8×8` — never a panic.
    pub fn load(r: &mut impl Read) -> Result<Self, PersistError> {
        // Exact-size caps: a read that succeeds consumes the whole section.
        let mut file = FileReader::open(r, MAGIC, VERSION)?;
        let header = file.section("index header", 29)?;
        let mut rd = Reader::new(&header, "index header");
        let (dim, parts, _reserved) = (rd.u64()?, rd.u64()?, rd.u8()?);
        let opts = read_scan_opts(&mut rd)?;
        if dim == 0 || parts == 0 {
            return Err(PersistError::Format(
                "empty dimension or partition count".into(),
            ));
        }
        let dim = Reader::count(dim, MAX_DIM, "dimension")?;
        let parts = Reader::count(parts, MAX_PARTITIONS, "partition count")?;

        // ≤ 2^46 bytes by the limits above.
        let bytes = file.section("coarse centroids", (parts * dim * 4) as u64)?;
        let centroids = Reader::new(&bytes, "coarse centroids").f32s(parts * dim)?;
        if centroids.iter().any(|v| !v.is_finite()) {
            return Err(PersistError::Format(
                "non-finite value in coarse centroids".into(),
            ));
        }

        let pq = load_pq(&mut file.section("quantizer", MAX_QUANTIZER_SECTION)?.as_slice())?;
        if pq.config().dim() != dim {
            return Err(PersistError::Format(format!(
                "quantizer dim {} != index dim {dim}",
                pq.config().dim()
            )));
        }

        let m = pq.config().m();
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

        IvfadcIndex::from_parts(
            CoarseQuantizer::from_centroids(centroids, dim),
            pq,
            partitions,
            opts,
        )
        .map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Saves to a file, atomically (temp file + fsync + rename): on any
    /// failure the previously published artifact is left untouched.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any IO failure.
    pub fn save_file(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        atomic_write_file(
            path,
            AtomicWriteSites {
                create: "ivf.persist.create",
                write: "ivf.persist.write",
                fsync: "ivf.persist.fsync",
                rename: "ivf.persist.rename",
            },
            |w| self.save(w),
        )
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
    use pqfs_core::codec::{crc32, write_block};
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

    /// Byte offset of the header section's body: magic, version, length.
    const HEADER_AT: usize = 16;

    /// Recomputes the file footer after an edit that kept the sections'
    /// own checksums valid.
    fn reseal(buf: &mut [u8]) {
        let end = buf.len() - 4;
        let footer = crc32(&buf[..end]);
        buf[end..].copy_from_slice(&footer.to_le_bytes());
    }

    /// The bytes of a hand-built index (PQ 8×8, dim 16, fixed centroids,
    /// ids and codes), pinned by length and CRC: a writer change that
    /// moves one byte fails here, which no round trip shows.
    #[test]
    fn golden_pqiv_image() {
        use pqfs_core::{Codebook, PqConfig, ProductQuantizer};
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
        let index = IvfadcIndex::from_parts(
            CoarseQuantizer::from_centroids(centroids, DIM),
            pq,
            vec![rows(vec![5, 2, 9], 0), rows(vec![1, 7], 1)],
            ScanOpts::default(),
        )
        .unwrap();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // The CRC of a whole image is the CRC-32 residue for any valid footer,
        // so the pin is the CRC of the bytes the footer covers.
        let body = &buf[..buf.len() - 4];
        assert_eq!((buf.len(), crc32(body)), (16_762, 0x319A_FFD7));
        let mut again = Vec::new();
        IvfadcIndex::load(&mut buf.as_slice())
            .unwrap()
            .save(&mut again)
            .unwrap();
        assert_eq!(again, buf);
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

    /// Earlier v3 writers stored the prepared-backend mask in header byte
    /// 16. Whatever it holds, the image loads and serves.
    #[test]
    fn images_with_a_backend_mask_in_the_reserved_byte_load_and_serve() {
        let _lock = pqfs_fault::exclusive();
        let (index, base) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        assert_eq!(buf[HEADER_AT + 16], 0);
        let want = index
            .search_probes(&base[..DIM], 7, SearchBackend::FastScan, 0.01, 1)
            .unwrap();
        for mask in [0x01u8, 0x3F] {
            buf[HEADER_AT + 16] = mask;
            let crc = crc32(&buf[HEADER_AT..HEADER_AT + 29]);
            buf[HEADER_AT + 29..HEADER_AT + 33].copy_from_slice(&crc.to_le_bytes());
            reseal(&mut buf);
            let loaded = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
            let got = loaded
                .search_probes(&base[..DIM], 7, SearchBackend::FastScan, 0.01, 1)
                .unwrap();
            assert_eq!(got.neighbors, want.neighbors, "mask {mask:#04x}");
            assert_eq!(got.stats, want.stats, "mask {mask:#04x}");
        }
    }

    /// An index is PQ 8x8. An image whose sections are all intact but whose
    /// quantizer has another shape is refused with a typed error.
    #[test]
    fn an_embedded_quantizer_that_is_not_pq8x8_is_a_format_error() {
        use pqfs_core::{PqConfig, ProductQuantizer};
        let mut rng = StdRng::seed_from_u64(59);
        let train: Vec<f32> = (0..1000 * DIM)
            .map(|_| rng.gen_range(0.0f32..255.0))
            .collect();
        // An empty base: the partition sections hold no codes, so they are
        // well-formed under any `m`.
        let index = IvfadcIndex::build(&train, &[], &IvfadcConfig::new(DIM, 2)).unwrap();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();

        let narrow = PqConfig::new(DIM, 4, 8).unwrap();
        let mut pq_bytes = Vec::new();
        save_pq(
            &ProductQuantizer::train(&train, &narrow, 1).unwrap(),
            &mut pq_bytes,
        )
        .unwrap();
        let mut section = Vec::new();
        section.put_u64(pq_bytes.len() as u64);
        write_block(&mut section, &pq_bytes).unwrap();
        // Header section (8 + 29 + 4), then the centroids section.
        let pq_at = HEADER_AT + 29 + 4 + 8 + 2 * DIM * 4 + 4;
        let pq_len = Reader::new(&buf[pq_at..], "length").u64().unwrap() as usize;
        buf.splice(pq_at..pq_at + 8 + pq_len + 4, section);
        reseal(&mut buf);
        match IvfadcIndex::load(&mut buf.as_slice()) {
            Err(PersistError::Format(msg)) => assert!(msg.contains("PQ 8x8"), "{msg}"),
            other => panic!("{:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn versions_without_checksums_are_refused() {
        let (index, _) = build();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        for version in [1u32, 2] {
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
    fn roundtrip_preserves_scan_options() {
        use pqfs_scan::{Kernel, ScanOpts};
        let mut rng = StdRng::seed_from_u64(57);
        let gen = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            (0..n * DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect()
        };
        let train = gen(&mut rng, 800);
        let base = gen(&mut rng, 200);
        let opts = ScanOpts::default()
            .with_keep(0.02)
            .with_bins(126)
            .with_group_components(1)
            .with_kernel(Kernel::Portable);
        let config = IvfadcConfig::new(DIM, 2).with_scan_opts(opts);
        let index = IvfadcIndex::build(&train, &base, &config).unwrap();

        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
        let roundtripped = loaded.scan_opts();
        assert_eq!(roundtripped.keep, 0.02);
        assert_eq!(roundtripped.bins, 126);
        assert_eq!(roundtripped.group_components, Some(1));
        assert_eq!(roundtripped.kernel, Kernel::Portable);
        // Identical options => identical prepared state => identical memory
        // accounting (the Figure 20 number survives persistence).
        assert_eq!(
            loaded.code_memory_bytes(SearchBackend::FastScan),
            index.code_memory_bytes(SearchBackend::FastScan)
        );
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

    #[test]
    fn rejects_absurd_counts_before_allocating() {
        // A header section (its CRC valid) claiming 2^50 partitions must
        // fail on the Limit check, not OOM allocating centroid or partition
        // buffers.
        let mut header = Vec::new();
        header.put_u64(16); // dim
        header.put_u64(1 << 50); // partitions
        header.put_u8(0); // reserved
        put_scan_opts(&mut header, &ScanOpts::default());
        let mut buf = Vec::new();
        write_file(&mut buf, MAGIC, VERSION, [header]).unwrap();
        assert!(matches!(
            IvfadcIndex::load(&mut buf.as_slice()),
            Err(PersistError::Limit { .. })
        ));
    }

    #[cfg(feature = "failpoints")]
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

    #[cfg(feature = "failpoints")]
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

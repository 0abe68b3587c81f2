//! Readers and writers for the TEXMEX vector file formats.
//!
//! ANN_SIFT1B (the paper's dataset, <http://corpus-texmex.irisa.fr/>) ships
//! as `.bvecs` (byte vectors), `.fvecs` (float vectors) and `.ivecs`
//! (integer vectors, used for ground truth). Every vector is stored as a
//! little-endian `i32` dimensionality followed by the components. These
//! routines let the harness load the real corpus when it is available; the
//! synthetic generator ([`crate::synthetic`]) covers the offline case.

use pqfs_fault::{FaultRead, FaultWrite};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from vector-file IO.
///
/// Marked `#[non_exhaustive]`: future format checks may add variants
/// without a breaking release.
#[derive(Debug)]
#[non_exhaustive]
pub enum DataError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// Structurally invalid file (bad dimension marker, truncated record,
    /// inconsistent dimensionality, or a record larger than the file
    /// holding it).
    Format(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "io error: {e}"),
            DataError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            DataError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// A set of vectors read from disk: row-major data plus dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorFile<T> {
    /// Row-major `n × dim` components.
    pub data: Vec<T>,
    /// Dimensionality shared by all records.
    pub dim: usize,
}

impl<T> VectorFile<T> {
    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the file held no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

fn read_records<T, F>(
    path: &Path,
    elem_size: usize,
    mut decode: F,
) -> Result<VectorFile<T>, DataError>
where
    F: FnMut(&[u8]) -> T,
{
    let file = File::open(path)?;
    // Every record's payload must fit in the bytes the file actually has;
    // checking against this running remainder rejects a corrupt dimension
    // marker (e.g. 2^30) before allocating a buffer for it.
    let mut remaining = file.metadata()?.len();
    let mut reader = BufReader::new(FaultRead::new(file, "data.io.read"));
    let mut data = Vec::new();
    let mut dim: Option<usize> = None;
    let mut header = [0u8; 4];
    loop {
        match reader.read_exact(&mut header) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        remaining = remaining.saturating_sub(4);
        let d = i32::from_le_bytes(header);
        if d <= 0 {
            return Err(DataError::Format(format!("non-positive dimension {d}")));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(prev) if prev != d => {
                return Err(DataError::Format(format!(
                    "inconsistent dimensions: {prev} then {d}"
                )))
            }
            _ => {}
        }
        let record = (d as u64) * (elem_size as u64);
        if record > remaining {
            return Err(DataError::Format(format!(
                "record claims {record} bytes but only {remaining} remain in the file"
            )));
        }
        let mut buf = vec![0u8; d * elem_size];
        reader
            .read_exact(&mut buf)
            .map_err(|_| DataError::Format("truncated record".into()))?;
        remaining -= record;
        data.extend(buf.chunks_exact(elem_size).map(&mut decode));
    }
    Ok(VectorFile {
        data,
        dim: dim.unwrap_or(0),
    })
}

fn write_records<T, F>(path: &Path, data: &[T], dim: usize, mut encode: F) -> Result<(), DataError>
where
    F: FnMut(&T, &mut Vec<u8>),
{
    if dim == 0 || !data.len().is_multiple_of(dim) {
        return Err(DataError::Format(format!(
            "data length {} is not a positive multiple of dim {dim}",
            data.len()
        )));
    }
    let mut writer = BufWriter::new(FaultWrite::new(File::create(path)?, "data.io.write"));
    let header = (dim as i32).to_le_bytes();
    let mut buf = Vec::new();
    for row in data.chunks_exact(dim) {
        writer.write_all(&header)?;
        buf.clear();
        for v in row {
            encode(v, &mut buf);
        }
        writer.write_all(&buf)?;
    }
    writer.flush()?;
    Ok(())
}

/// Reads a `.fvecs` file (32-bit little-endian floats).
pub fn read_fvecs(path: impl AsRef<Path>) -> Result<VectorFile<f32>, DataError> {
    read_records(path.as_ref(), 4, |b| {
        f32::from_le_bytes([b[0], b[1], b[2], b[3]])
    })
}

/// Writes a `.fvecs` file.
pub fn write_fvecs(path: impl AsRef<Path>, data: &[f32], dim: usize) -> Result<(), DataError> {
    write_records(path.as_ref(), data, dim, |v, buf| {
        buf.extend_from_slice(&v.to_le_bytes())
    })
}

/// Reads a `.bvecs` file (unsigned bytes, SIFT1B's base format).
pub fn read_bvecs(path: impl AsRef<Path>) -> Result<VectorFile<u8>, DataError> {
    read_records(path.as_ref(), 1, |b| b[0])
}

/// Writes a `.bvecs` file.
pub fn write_bvecs(path: impl AsRef<Path>, data: &[u8], dim: usize) -> Result<(), DataError> {
    write_records(path.as_ref(), data, dim, |v, buf| buf.push(*v))
}

/// Reads an `.ivecs` file (32-bit little-endian integers; ground truth ids).
pub fn read_ivecs(path: impl AsRef<Path>) -> Result<VectorFile<i32>, DataError> {
    read_records(path.as_ref(), 4, |b| {
        i32::from_le_bytes([b[0], b[1], b[2], b[3]])
    })
}

/// Writes an `.ivecs` file.
pub fn write_ivecs(path: impl AsRef<Path>, data: &[i32], dim: usize) -> Result<(), DataError> {
    write_records(path.as_ref(), data, dim, |v, buf| {
        buf.extend_from_slice(&v.to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pqfs-io-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn fvecs_roundtrip() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("f.fvecs");
        let data: Vec<f32> = (0..12).map(|i| i as f32 * 0.5).collect();
        write_fvecs(&path, &data, 4).unwrap();
        let file = read_fvecs(&path).unwrap();
        assert_eq!(file.dim, 4);
        assert_eq!(file.len(), 3);
        assert_eq!(file.data, data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bvecs_roundtrip() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("b.bvecs");
        let data: Vec<u8> = (0..=255).collect();
        write_bvecs(&path, &data, 128).unwrap();
        let file = read_bvecs(&path).unwrap();
        assert_eq!(file.dim, 128);
        assert_eq!(file.len(), 2);
        assert_eq!(file.data, data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ivecs_roundtrip() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("i.ivecs");
        let data: Vec<i32> = vec![5, -3, 1000000, 0, 7, 42];
        write_ivecs(&path, &data, 3).unwrap();
        let file = read_ivecs(&path).unwrap();
        assert_eq!(file.data, data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn empty_file_reads_as_empty() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("empty.fvecs");
        std::fs::write(&path, b"").unwrap();
        let file = read_fvecs(&path).unwrap();
        assert!(file.is_empty());
        assert_eq!(file.dim, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncated_record_is_a_format_error() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("trunc.fvecs");
        let mut bytes = (4i32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 4 floats
        std::fs::write(&path, &bytes).unwrap();
        let err = read_fvecs(&path).unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "got {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn inconsistent_dims_are_rejected() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("mixed.fvecs");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1i32).to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&(2i32).to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&2.0f32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_fvecs(&path).unwrap_err(),
            DataError::Format(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn absurd_dimension_marker_is_rejected_before_allocating() {
        let _lock = pqfs_fault::exclusive();
        // A 2^30 dimension marker on an 8-byte file must fail the
        // remaining-bytes check, not attempt a 4 GiB allocation.
        let path = tmp("absurd.fvecs");
        let mut bytes = (1i32 << 30).to_le_bytes().to_vec();
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_fvecs(&path).unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "got {err}");
        assert!(err.to_string().contains("remain"), "got {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn injected_io_faults_surface_as_errors() {
        let _lock = pqfs_fault::exclusive();
        let path = tmp("faulty.fvecs");
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        {
            let _g = pqfs_fault::scoped("data.io.write", pqfs_fault::FaultAction::Error);
            assert!(matches!(
                write_fvecs(&path, &data, 4).unwrap_err(),
                DataError::Io(_)
            ));
        }
        write_fvecs(&path, &data, 4).unwrap();
        {
            let _g = pqfs_fault::scoped("data.io.read", pqfs_fault::FaultAction::Error);
            assert!(matches!(read_fvecs(&path).unwrap_err(), DataError::Io(_)));
        }
        {
            // A short read mid-record is a truncation, not a crash.
            let _g = pqfs_fault::scoped("data.io.read", pqfs_fault::FaultAction::ShortRead(10));
            assert!(read_fvecs(&path).is_err());
        }
        assert_eq!(read_fvecs(&path).unwrap().data, data);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_rejects_ragged_data() {
        let path = tmp("ragged.fvecs");
        assert!(matches!(
            write_fvecs(&path, &[1.0, 2.0, 3.0], 2).unwrap_err(),
            DataError::Format(_)
        ));
    }
}

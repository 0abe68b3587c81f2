//! Corruption torture suite for the v3 persist format.
//!
//! A served index artifact can be damaged anywhere — a torn write, a
//! truncated copy, a flipped bit on a failing disk. The contract of
//! [`IvfadcIndex::load`] is that **every** such mutation yields a typed
//! error: no panic, no OOM, and never a silent wrong load. These tests
//! enforce that contract exhaustively over a real index image: every
//! single-byte flip, every truncation length, and trailing garbage.

use pqfs_ivf::{IvfadcConfig, IvfadcIndex, SearchBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DIM: usize = 16;

/// Builds a small index and returns its serialized v3 image.
fn index_bytes() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(99);
    let mut gen =
        |n: usize| -> Vec<f32> { (0..n * DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect() };
    let train = gen(1000);
    let base = gen(300);
    let index = IvfadcIndex::build(&train, &base, &IvfadcConfig::new(DIM, 4)).unwrap();
    let mut buf = Vec::new();
    index.save(&mut buf).unwrap();
    buf
}

/// Loading must return `Err` — not panic, and not succeed — for the given
/// mutated image.
fn assert_rejected(bytes: &[u8], what: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        IvfadcIndex::load(&mut &bytes[..]).map(|ix| ix.len())
    }));
    match result {
        Ok(Ok(n)) => panic!("{what}: loaded 'successfully' ({n} vectors) from a corrupt image"),
        Ok(Err(_)) => {}
        Err(_) => panic!("{what}: load panicked instead of returning an error"),
    }
}

#[test]
fn pristine_image_loads_and_serves_every_backend() {
    let buf = index_bytes();
    let index = IvfadcIndex::load(&mut buf.as_slice()).unwrap();
    let query = vec![128.0f32; DIM];
    for backend in SearchBackend::ALL {
        let outcome = index.search_probes(&query, 5, backend, 0.01, 1).unwrap();
        assert!(!outcome.neighbors.is_empty(), "{backend}");
    }
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let buf = index_bytes();
    // Low-bit and high-bit flips at every byte offset: covers corruption
    // in the magic, version, every length prefix, every section payload,
    // every section CRC, and the footer itself.
    for mask in [0x01u8, 0x80] {
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= mask;
            assert_rejected(&bad, &format!("byte {i} ^ {mask:#04x}"));
        }
    }
}

#[test]
fn every_byte_overwrite_with_ff_is_rejected() {
    // Overwrites (not just flips) model a stuck-at-one disk sector; skip
    // offsets that already hold 0xFF since that is no mutation.
    let buf = index_bytes();
    for i in 0..buf.len() {
        if buf[i] == 0xFF {
            continue;
        }
        let mut bad = buf.clone();
        bad[i] = 0xFF;
        assert_rejected(&bad, &format!("byte {i} := 0xFF"));
    }
}

#[test]
fn every_truncation_length_is_rejected() {
    let buf = index_bytes();
    for end in 0..buf.len() {
        assert_rejected(&buf[..end], &format!("truncated to {end} bytes"));
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut buf = index_bytes();
    buf.push(0);
    assert_rejected(&buf, "one trailing byte");
}

#[test]
fn corrupt_embedded_quantizer_bytes_are_rejected() {
    // The quantizer codebooks are the largest section; damage deep inside
    // it (a NaN pattern over a float) must be caught by the section CRC
    // long before the floats are interpreted.
    let buf = index_bytes();
    let mid = buf.len() / 2;
    let mut bad = buf.clone();
    bad[mid..mid + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    assert_rejected(&bad, "NaN spliced into the middle of the image");
}

/// Where the scan-options block keeps its reserved slots, in the header
/// section's 29-byte body, which magic, version and the section's length
/// precede: `keep` f64, `bins` u16, grouping components u8 and kernel tag u8.
const HEADER_AT: usize = 16;
const KEEP_AT: usize = HEADER_AT + 17;
const BINS_AT: usize = HEADER_AT + 25;
const COMPONENTS_AT: usize = HEADER_AT + 27;
const KERNEL_TAG_AT: usize = HEADER_AT + 28;

/// `buf` with `bytes` written at `at`, in the header section, and every
/// checksum valid again.
fn resealed(mut buf: Vec<u8>, at: usize, bytes: &[u8]) -> Vec<u8> {
    buf[at..at + bytes.len()].copy_from_slice(bytes);
    let crc = pqfs_core::crc32(&buf[HEADER_AT..HEADER_AT + 29]);
    buf[HEADER_AT + 29..HEADER_AT + 33].copy_from_slice(&crc.to_le_bytes());
    let end = buf.len() - 4;
    let footer = pqfs_core::crc32(&buf[..end]);
    buf[end..].copy_from_slice(&footer.to_le_bytes());
    buf
}

/// Whatever older writers stored in the reserved slots — a warm-up
/// fraction, a bin count, a fixed component count, a kernel tag, valid or
/// not — the image loads with automatic grouping under `Kernel::Auto` and
/// answers exactly as the default image does.
#[test]
fn reserved_header_slots_are_not_interpreted() {
    let default = index_bytes();
    assert_eq!(default[KEEP_AT..KEEP_AT + 8], 0.005f64.to_le_bytes());
    assert_eq!(default[BINS_AT..BINS_AT + 2], 253u16.to_le_bytes());
    assert_eq!(default[COMPONENTS_AT], 0xFF, "automatic components");
    assert_eq!(default[KERNEL_TAG_AT], 0, "Kernel::Auto");
    let index = IvfadcIndex::load(&mut default.as_slice()).unwrap();
    // What older writers stored for a 0.02 warm-up and 126 bins, then each
    // (components, kernel tag) pair: 1 and 7 components, the portable and
    // the VBMI kernel, and a tag no writer used.
    let older = resealed(default.clone(), KEEP_AT, &0.02f64.to_le_bytes());
    let older = resealed(older, BINS_AT, &126u16.to_le_bytes());
    for (components, tag) in [(1u8, 1u8), (7, 4), (1, 5), (7, 5)] {
        let image = resealed(older.clone(), COMPONENTS_AT, &[components, tag]);
        let loaded = IvfadcIndex::load(&mut image.as_slice()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let query: Vec<f32> = (0..DIM).map(|_| rng.gen_range(0.0f32..255.0)).collect();
            for backend in SearchBackend::ALL {
                for nprobe in [1, 4] {
                    let case = format!("c {components} tag {tag} {backend} nprobe {nprobe}");
                    let want = index.search_probes(&query, 10, backend, 0.005, nprobe);
                    let got = loaded.search_probes(&query, 10, backend, 0.005, nprobe);
                    let (want, got) = (want.unwrap(), got.unwrap());
                    let bits = |o: &pqfs_ivf::SearchOutcome| -> Vec<(u32, u64)> {
                        o.neighbors
                            .iter()
                            .map(|n| (n.dist.to_bits(), n.id))
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    assert_eq!(got.stats, want.stats, "{case}");
                }
            }
        }
        // The slots are re-written as every default build writes them.
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        assert_eq!(again, default, "c {components} tag {tag}");
    }
}

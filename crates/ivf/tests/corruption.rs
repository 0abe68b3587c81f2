//! Corruption torture suite for the v4 index file format.
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

/// Builds a small index and returns its serialized v4 image.
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

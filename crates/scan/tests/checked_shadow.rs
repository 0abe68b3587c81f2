//! Differential shadow-execution coverage: with `checked-kernels` enabled
//! and the sampling rate forced to 1, every SIMD fast-scan kernel
//! invocation re-runs its portable oracle and asserts identical hand-offs.
//! Running every [`Backend`] through a scan therefore *is* the assertion —
//! any divergence panics inside the kernel dispatcher — and the PQ Scan
//! oracles must agree with Fast Scan on the result set.

#![cfg(feature = "checked-kernels")]

use pqfs_core::{DistanceTables, RowMajorCodes};
use pqfs_scan::{Backend, Kernel, ScanOpts};

fn tables(m: usize, ksub: usize) -> DistanceTables {
    let raw: Vec<f32> = (0..m * ksub)
        .map(|x| ((x * 2654435761usize) % 10_007) as f32 / 97.0)
        .collect();
    DistanceTables::from_raw(raw, m, ksub)
}

fn codes(n: usize, m: usize) -> RowMajorCodes {
    RowMajorCodes::new((0..n * m).map(|x| (x * 131 % 256) as u8).collect(), m)
}

/// Every backend scans with shadow-checking on every kernel invocation;
/// all backends must also agree on the result set.
#[test]
fn every_backend_survives_full_rate_shadow_checking() {
    pqfs_scan::checked::force_rate(1);
    // Which Fast Scan kernel, and so which oracle, this run checks (CI shows
    // it with `--nocapture`).
    let kernel = Kernel::Auto.resolved().unwrap();
    eprintln!("Kernel::Auto resolves to {kernel:?}");
    assert_eq!(ScanOpts::default().kernel, Kernel::Auto);
    let tables = tables(8, 256);
    let codes = codes(4096, 8);
    let topk = 17;

    let mut expected: Option<Vec<(u64, f32)>> = None;
    for backend in Backend::ALL {
        let result = backend
            .scanner(&ScanOpts::default())
            .scan(&tables, &codes, topk)
            .unwrap_or_else(|e| panic!("{backend:?} scan failed: {e}"));
        let pairs: Vec<(u64, f32)> = result.neighbors.iter().map(|n| (n.id, n.dist)).collect();
        match &expected {
            None => expected = Some(pairs),
            Some(exp) => assert_eq!(&pairs, exp, "{backend:?} diverged from first backend"),
        }
    }
}

/// Ragged sizes (not multiples of the SIMD block) still pass shadow checks.
#[test]
fn ragged_lengths_survive_shadow_checking() {
    pqfs_scan::checked::force_rate(1);
    let tables = tables(8, 256);
    for n in [1usize, 15, 16, 17, 63, 64, 65, 1000] {
        let codes = codes(n, 8);
        for backend in Backend::ALL {
            backend
                .scanner(&ScanOpts::default())
                .scan(&tables, &codes, 5)
                .unwrap_or_else(|e| panic!("{backend:?} n={n} scan failed: {e}"));
        }
    }
}

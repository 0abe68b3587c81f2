//! Differential shadow-execution of SIMD kernels (feature `checked-kernels`).
//!
//! Every SIMD fast-scan kernel in this crate has a portable scalar kernel
//! that is **identical by construction** (same saturating arithmetic, same
//! hand-off order). With `checked-kernels` enabled, a sampled subset of
//! kernel invocations re-runs the portable kernel on the same inputs and
//! asserts the hand-offs match — a cheap, always-on guard against
//! miscompiled intrinsics, broken runtime dispatch, or a kernel change that
//! silently diverges from its oracle. (The fast-scan kernel
//! that bounds twice, `Kernel::Avx512Vbmi`, is checked against the portable
//! kernel in its full-table mode: `fastscan::kernel::scan_all`.)
//!
//! Sampling is controlled by `PQFS_CHECK_RATE`: check every Nth invocation
//! (default 64). `PQFS_CHECK_RATE=1` checks every call; `PQFS_CHECK_RATE=0`
//! disables checking without recompiling. The counter is a single relaxed
//! atomic, so the cost of an unsampled call is one fetch-add.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default sampling period: one shadow execution per 64 kernel invocations.
pub const DEFAULT_CHECK_RATE: u64 = 64;

static CALLS: AtomicU64 = AtomicU64::new(0);
static RATE: OnceLock<u64> = OnceLock::new();

fn rate() -> u64 {
    *RATE.get_or_init(|| match std::env::var("PQFS_CHECK_RATE") {
        Ok(v) => v.trim().parse().unwrap_or(DEFAULT_CHECK_RATE),
        Err(_) => DEFAULT_CHECK_RATE,
    })
}

/// Forces the sampling rate, overriding `PQFS_CHECK_RATE` if neither has
/// been read yet (first writer wins). Lets tests guarantee every kernel
/// invocation is shadow-checked without racing on the process environment.
pub fn force_rate(r: u64) {
    let _ = RATE.set(r);
}

/// True when this kernel invocation is sampled for shadow execution.
#[inline]
pub fn should_check() -> bool {
    let r = rate();
    if r == 0 {
        return false;
    }
    CALLS.fetch_add(1, Ordering::Relaxed) % r == 0
}

/// Asserts two fast-scan hand-off sequences (`(group, block, lane mask)`
/// triples, in hand-off order) are identical, with a diagnostic naming the
/// kernel and the first divergence.
#[track_caller]
pub fn assert_blocks_match(
    kernel: &str,
    simd: &[(usize, usize, u16)],
    portable: &[(usize, usize, u16)],
) {
    for (i, (s, p)) in simd.iter().zip(portable).enumerate() {
        assert!(
            s == p,
            "checked-kernels[{kernel}]: hand-off {i} diverged: simd=(g{}, b{}, {:#06x}) \
             portable=(g{}, b{}, {:#06x})",
            s.0,
            s.1,
            s.2,
            p.0,
            p.1,
            p.2
        );
    }
    assert_eq!(
        simd.len(),
        portable.len(),
        "checked-kernels[{kernel}]: hand-off count diverged (simd={}, portable={})",
        simd.len(),
        portable.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "hand-off count diverged")]
    fn missing_block_is_detected() {
        assert_blocks_match("test", &[(1, 2, 1)], &[(1, 2, 1), (2, 3, 1)]);
    }

    #[test]
    #[should_panic(expected = "hand-off 1 diverged")]
    fn differing_mask_is_detected() {
        assert_blocks_match(
            "test",
            &[(1, 2, 1), (2, 3, 0b11)],
            &[(1, 2, 1), (2, 3, 0b01)],
        );
    }
}

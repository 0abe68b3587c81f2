//! Differential shadow-execution of SIMD kernels, off unless
//! `PQFS_CHECK_RATE` asks for it.
//!
//! Every SIMD fast-scan kernel in this crate has a portable scalar kernel
//! that is **identical by construction** (same saturating arithmetic, same
//! hand-off order). When sampling is on, a sampled subset of kernel passes
//! re-runs the portable kernel on the same inputs and asserts the hand-offs
//! match — a guard against miscompiled intrinsics, broken runtime dispatch,
//! or a kernel change that silently diverges from its oracle. (The
//! fast-scan kernel that bounds twice, `Kernel::Avx512Vbmi`, is checked
//! against the portable kernel in its full-table mode:
//! `fastscan::kernel::scan_all`.)
//!
//! `PQFS_CHECK_RATE=N` checks every Nth kernel pass; unset, `0` or not a
//! number, no pass is checked. The rate is read once per process. With
//! sampling off a kernel pass pays one load and a branch; the shared call
//! counter is only touched when sampling is on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

static CALLS: AtomicU64 = AtomicU64::new(0);
static RATE: OnceLock<u64> = OnceLock::new();

/// The sampling period a `PQFS_CHECK_RATE` value asks for: `None` (unset),
/// `0` and anything that is not a number mean off (0).
pub fn parse_rate(value: Option<&str>) -> u64 {
    value.and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

fn rate() -> u64 {
    *RATE.get_or_init(|| parse_rate(std::env::var("PQFS_CHECK_RATE").ok().as_deref()))
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
    r != 0 && CALLS.fetch_add(1, Ordering::Relaxed).is_multiple_of(r)
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
            "checked[{kernel}]: hand-off {i} diverged: simd=(g{}, b{}, {:#06x}) \
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
        "checked[{kernel}]: hand-off count diverged (simd={}, portable={})",
        simd.len(),
        portable.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_is_off_unless_a_rate_is_set() {
        assert_eq!(parse_rate(None), 0);
        assert_eq!(parse_rate(Some("0")), 0);
        assert_eq!(parse_rate(Some("1")), 1);
        assert_eq!(parse_rate(Some("64")), 64);
    }

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

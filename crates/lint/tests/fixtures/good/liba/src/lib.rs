//! Fixture: everything in order.
#![deny(unsafe_op_in_unsafe_fn)]

/// # Safety
///
/// `p` must point to a readable byte.
pub unsafe fn read_raw(p: *const u8) -> u8 {
    // SAFETY: caller contract guarantees `p` is readable.
    unsafe { *p }
}

/// A body shared by `#[target_feature]` wrappers: the attribute between the
/// contract and the header must not hide the contract.
///
/// # Safety
///
/// `p` must point to a readable byte.
#[inline(always)]
pub unsafe fn read_raw_inlined(p: *const u8) -> u8 {
    // SAFETY: `p` is readable, by this function's own contract.
    unsafe { read_raw(p) }
}

pub fn observe() {
    let _counter = LazyCounter::new("pqfs_good_total");
    let _static_site = check("good.site");
    let _dynamic_site = check("dyn.prefix.part0");
}

pub fn sanctioned() -> i32 {
    // pqfs-lint: allow(forbidden-panic)
    Some(1).unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        Some(2).unwrap();
    }
}

//! Fixture: a binary of an unsafe-allowlisted crate that carries the
//! library's header instead of forbidding unsafe code.
#![deny(unsafe_op_in_unsafe_fn)]

fn main() {}

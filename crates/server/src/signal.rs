//! Minimal std-only SIGTERM/SIGINT latch for graceful shutdown.
//!
//! Nothing *reacts* inside a signal handler — the handler only stores a
//! flag into a static [`AtomicBool`] (one of the few operations that is
//! async-signal-safe). No server loop reads it: `pqfs serve`'s main loop
//! polls [`triggered`] and then calls
//! [`crate::ServerHandle::shutdown_and_join`], which stops the server's
//! own loops. This crate binds `signal(2)` directly through the libc that
//! std already links, keeping the workspace dependency-free; on glibc
//! `signal` installs BSD semantics (`SA_RESTART`), which is why the main
//! loop polls with a sleep instead of relying on `EINTR`.

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use super::TRIGGERED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // Provided by libc, which std always links on unix. `handler` is
        // an `extern "C" fn(i32)` pointer passed as usize so no libc
        // types are needed.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: a single atomic store.
        TRIGGERED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        let handler = on_signal as *const () as usize;
        // SAFETY: `signal` is the libc prototype (int, handler) -> old
        // handler; `on_signal` is an `extern "C" fn(i32)` whose address
        // is a valid handler for the whole program lifetime, and it
        // performs only an async-signal-safe atomic store.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Installs the SIGTERM and SIGINT handlers (idempotent). On non-unix
/// targets this is a no-op and shutdown relies on
/// [`crate::ServerHandle::trigger_shutdown`].
pub fn install() {
    #[cfg(unix)]
    unix::install();
}

/// True once SIGTERM/SIGINT arrived.
pub fn triggered() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}

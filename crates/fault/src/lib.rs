//! Deterministic fault injection for the PQ Fast Scan workspace.
//!
//! A production ANN service must survive torn writes, truncated downloads,
//! bit flips and slow disks without crashing or silently serving wrong
//! neighbors. Proving that requires *injecting* those faults on demand.
//! This crate provides **named failpoints**: sites in the IO and query
//! paths (`core.persist.read`, `ivf.persist.fsync`, `ivf.search.scan`, …)
//! where a configured fault fires deterministically.
//!
//! # Arming failpoints
//!
//! Programmatically:
//!
//! ```
//! use pqfs_fault::{self as fault, FaultAction};
//!
//! let _lock = fault::exclusive(); // serialize registry use across tests
//! let _guard = fault::scoped("demo.site", FaultAction::Error);
//! if fault::armed() {
//!     // With the default `failpoints` feature the armed site fires ...
//!     assert!(fault::check("demo.site").is_err());
//! }
//! drop(_guard);
//! // ... and a disarmed site (or a no-failpoints build) always passes.
//! assert!(fault::check("demo.site").is_ok());
//! ```
//!
//! Or from the environment, read once at first use:
//!
//! ```text
//! PQFS_FAILPOINTS="core.persist.read=bitflip(100);ivf.persist.fsync=err"
//! ```
//!
//! Spec grammar: `site=action` entries separated by `;`. Actions:
//!
//! | action          | effect                                                |
//! |-----------------|-------------------------------------------------------|
//! | `err` / `io`    | the site fails with an injected [`std::io::Error`]    |
//! | `short_read(N)` | the wrapped reader yields EOF after `N` bytes         |
//! | `short_write(N)`| the wrapped writer errors after `N` bytes             |
//! | `bitflip(K)`    | the byte at stream offset `K` has its low bit flipped |
//! | `delay(MS)`     | the site sleeps `MS` milliseconds, then succeeds      |
//! | `off`           | disarms the site                                      |
//!
//! A `COUNT*` prefix (`3*err`) limits how many triggers fire; afterwards
//! the site is disarmed. Triggers are consumed in program order, so a test
//! that arms `1*err` knows exactly which operation fails.
//!
//! # Cost when disarmed
//!
//! Probing a site when **nothing at all** is armed is a single relaxed
//! atomic load ([`armed`] is checked first at every site). Compiling with
//! `--no-default-features` removes even that: every probe becomes a const
//! `false` and the [`FaultRead`]/[`FaultWrite`] wrappers are transparent.
//!
//! # Determinism
//!
//! Faults fire based on stream byte offsets and trigger counts — never on
//! wall-clock time or thread scheduling — so an armed test fails the same
//! way on every run and pool size.

#![forbid(unsafe_code)]

mod io_wrap;
mod spec;

pub use io_wrap::{FaultRead, FaultWrite};
pub use spec::FaultSpecError;

use std::fmt;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultAction {
    /// Fail with an injected [`std::io::Error`] (payload [`InjectedFault`]).
    Error,
    /// Wrapped readers report EOF after this many bytes (truncation).
    ShortRead(u64),
    /// Wrapped writers error after this many bytes (torn write / disk full).
    ShortWrite(u64),
    /// Flip the low bit of the byte at this stream offset (corruption).
    BitFlip(u64),
    /// Sleep this many milliseconds, then succeed (slow device).
    Delay(u64),
}

/// The payload of every injected [`std::io::Error`]; downcast to tell an
/// injected failure from a real one.
#[derive(Debug)]
pub struct InjectedFault {
    /// The failpoint site that fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint '{}'", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Builds the injected error for `site`.
pub fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(InjectedFault { site: site.into() })
}

#[cfg(feature = "failpoints")]
mod registry {
    use super::{injected_error, FaultAction, FaultSpecError};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    struct Failpoint {
        action: FaultAction,
        /// Triggers left before auto-disarm; `None` = unlimited.
        remaining: Option<u64>,
    }

    struct Registry {
        sites: Mutex<HashMap<String, Failpoint>>,
        /// Number of armed sites — the disarmed fast path reads only this.
        count: AtomicUsize,
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            let reg = Registry {
                sites: Mutex::new(HashMap::new()),
                count: AtomicUsize::new(0),
            };
            if let Ok(spec) = std::env::var("PQFS_FAILPOINTS") {
                if let Err(e) = arm_spec_into(&reg, &spec) {
                    eprintln!("pqfs_fault: ignoring invalid PQFS_FAILPOINTS entry: {e}");
                }
            }
            reg
        })
    }

    fn arm_spec_into(reg: &Registry, spec: &str) -> Result<(), FaultSpecError> {
        let mut first_err = None;
        for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
            match super::spec::parse_entry(entry) {
                Ok((site, None)) => disarm_in(reg, &site),
                Ok((site, Some((action, count)))) => arm_in(reg, site, action, count),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    fn arm_in(reg: &Registry, site: String, action: FaultAction, remaining: Option<u64>) {
        let mut sites = reg.sites.lock().unwrap_or_else(PoisonError::into_inner);
        if sites
            .insert(site, Failpoint { action, remaining })
            .is_none()
        {
            reg.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn disarm_in(reg: &Registry, site: &str) {
        let mut sites = reg.sites.lock().unwrap_or_else(PoisonError::into_inner);
        if sites.remove(site).is_some() {
            reg.count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// True when at least one failpoint is armed (one relaxed load).
    pub fn armed() -> bool {
        registry().count.load(Ordering::Relaxed) != 0
    }

    /// Arms `site` with `action`, firing on every trigger until disarmed.
    pub fn arm(site: impl Into<String>, action: FaultAction) {
        arm_in(registry(), site.into(), action, None);
    }

    /// Arms `site` with `action` for at most `count` triggers.
    pub fn arm_limited(site: impl Into<String>, action: FaultAction, count: u64) {
        arm_in(registry(), site.into(), action, Some(count));
    }

    /// Applies a `PQFS_FAILPOINTS`-syntax spec string.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] for the first malformed entry; well-formed
    /// entries before and after it are still applied.
    pub fn arm_spec(spec: &str) -> Result<(), FaultSpecError> {
        arm_spec_into(registry(), spec)
    }

    /// Disarms `site` (a no-op when it was not armed).
    pub fn disarm(site: &str) {
        disarm_in(registry(), site);
    }

    /// Disarms every site.
    pub fn disarm_all() {
        let reg = registry();
        let mut sites = reg.sites.lock().unwrap_or_else(PoisonError::into_inner);
        let n = sites.len();
        sites.clear();
        reg.count.fetch_sub(n, Ordering::Relaxed);
    }

    /// Injected faults by failpoint site, so operators can see which sites
    /// are firing without parsing logs.
    static INJECTED: pqfs_obs::CounterFamily = pqfs_obs::CounterFamily::new(
        "pqfs_fault_injected_total",
        "Faults injected, by failpoint site",
        "site",
    );

    /// Consumes one trigger of `site`: the armed action, or `None` when the
    /// site is disarmed (or its trigger budget is spent).
    pub fn take(site: &str) -> Option<FaultAction> {
        if !armed() {
            return None;
        }
        let reg = registry();
        let mut sites = reg.sites.lock().unwrap_or_else(PoisonError::into_inner);
        let fp = sites.get_mut(site)?;
        let action = fp.action;
        if let Some(remaining) = &mut fp.remaining {
            *remaining -= 1;
            if *remaining == 0 {
                sites.remove(site);
                reg.count.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(sites);
        INJECTED.inc(site);
        Some(action)
    }

    /// Evaluates `site` as a simple go/no-go point: [`FaultAction::Delay`]
    /// sleeps then succeeds; every other armed action fails with the
    /// injected error. Stream-shaped actions (`ShortRead`, …) armed on a
    /// non-stream site fail loudly rather than silently doing nothing.
    ///
    /// # Errors
    ///
    /// The injected [`std::io::Error`] when the site fires.
    pub fn check(site: &str) -> std::io::Result<()> {
        match take(site) {
            None => Ok(()),
            Some(FaultAction::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(_) => Err(injected_error(site)),
        }
    }

    /// Serializes tests that touch the (global) registry. Hold the guard
    /// for the whole test; the mutex recovers from panicked holders.
    ///
    /// The registry is process-wide and `cargo test` runs a binary's tests
    /// on parallel threads, so the lock is for both sides: the test that
    /// arms a site, and **every test of the same binary that merely
    /// crosses a site another test arms** — a plain `save_*_file`
    /// roundtrip beside a test arming `*.persist.write` fails with the
    /// injected error once in a few runs otherwise.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(not(feature = "failpoints"))]
mod registry {
    //! Compiled-out stubs: every probe is a const `false`.
    use super::{FaultAction, FaultSpecError};
    use std::sync::{Mutex, MutexGuard};

    /// Always `false` without the `failpoints` feature.
    pub fn armed() -> bool {
        false
    }

    /// No-op without the `failpoints` feature.
    pub fn arm(_site: impl Into<String>, _action: FaultAction) {}

    /// No-op without the `failpoints` feature.
    pub fn arm_limited(_site: impl Into<String>, _action: FaultAction, _count: u64) {}

    /// Validates the spec but arms nothing without the `failpoints` feature.
    ///
    /// # Errors
    ///
    /// [`FaultSpecError`] for the first malformed entry.
    pub fn arm_spec(spec: &str) -> Result<(), FaultSpecError> {
        for entry in spec.split(';').filter(|s| !s.trim().is_empty()) {
            super::spec::parse_entry(entry)?;
        }
        Ok(())
    }

    /// No-op without the `failpoints` feature.
    pub fn disarm(_site: &str) {}

    /// No-op without the `failpoints` feature.
    pub fn disarm_all() {}

    /// Always `None` without the `failpoints` feature.
    pub fn take(_site: &str) -> Option<FaultAction> {
        None
    }

    /// Always `Ok` without the `failpoints` feature.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn check(_site: &str) -> std::io::Result<()> {
        Ok(())
    }

    /// Serializes tests that touch the registry (still real, so mixed
    /// feature sets keep the same locking discipline).
    pub fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }
}

pub use registry::{arm, arm_limited, arm_spec, armed, check, disarm, disarm_all, exclusive, take};

/// Arms `site` for the guard's lifetime; dropping the guard disarms it.
pub fn scoped(site: impl Into<String>, action: FaultAction) -> FaultScope {
    let site = site.into();
    arm(site.clone(), action);
    FaultScope { site }
}

/// RAII guard from [`scoped`]: disarms its site on drop.
#[derive(Debug)]
pub struct FaultScope {
    site: String,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        disarm(&self.site);
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_pass() {
        let _lock = exclusive();
        assert!(!armed() || take("never.armed").is_none());
        assert!(check("never.armed").is_ok());
    }

    #[test]
    fn armed_site_fires_and_disarms() {
        let _lock = exclusive();
        arm("t.fire", FaultAction::Error);
        assert!(armed());
        let err = check("t.fire").unwrap_err();
        assert!(err
            .get_ref()
            .unwrap()
            .downcast_ref::<InjectedFault>()
            .is_some());
        disarm("t.fire");
        assert!(check("t.fire").is_ok());
    }

    #[test]
    fn limited_count_is_consumed_in_order() {
        let _lock = exclusive();
        arm_limited("t.twice", FaultAction::Error, 2);
        assert!(check("t.twice").is_err());
        assert!(check("t.twice").is_err());
        assert!(check("t.twice").is_ok(), "budget spent, site auto-disarmed");
    }

    #[test]
    fn scoped_guard_disarms_on_drop() {
        let _lock = exclusive();
        {
            let _g = scoped("t.scope", FaultAction::Error);
            assert!(check("t.scope").is_err());
        }
        assert!(check("t.scope").is_ok());
    }

    #[test]
    fn spec_round_trips_through_arm_spec() {
        let _lock = exclusive();
        arm_spec("t.a=err; t.b = 2*bitflip(7) ;t.c=delay(0)").unwrap();
        assert_eq!(take("t.a"), Some(FaultAction::Error));
        assert_eq!(take("t.b"), Some(FaultAction::BitFlip(7)));
        assert_eq!(take("t.b"), Some(FaultAction::BitFlip(7)));
        assert_eq!(take("t.b"), None);
        assert!(check("t.c").is_ok(), "delay(0) succeeds after sleeping");
        arm_spec("t.a=off").unwrap();
        assert_eq!(take("t.a"), None);
        disarm_all();
        assert!(!armed());
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn injected_faults_are_counted_per_site() {
        let _lock = exclusive();
        let site = "t.metrics.site";
        let before = pqfs_obs::counter_value("pqfs_fault_injected_total", Some(("site", site)));
        arm_limited(site, FaultAction::Error, 2);
        assert!(check(site).is_err());
        assert!(check(site).is_err());
        assert!(check(site).is_ok(), "budget spent");
        let after = pqfs_obs::counter_value("pqfs_fault_injected_total", Some(("site", site)));
        assert_eq!(after - before, 2, "exactly the fired triggers are counted");
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _lock = exclusive();
        assert!(arm_spec("missing-equals").is_err());
        assert!(arm_spec("s=unknown_action").is_err());
        assert!(arm_spec("s=short_read(x)").is_err());
        assert!(arm_spec("s=bitflip").is_err());
        assert!(arm_spec("=err").is_err());
        assert!(arm_spec("s=0*err").is_err());
        disarm_all();
    }
}

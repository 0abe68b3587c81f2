//! The global metrics registry: lock-free sharded counters, gauges, and
//! histogram registration.
//!
//! # Recording cost
//!
//! * **Counters** are sharded: each counter holds [`SHARDS`] cache-line-
//!   padded relaxed atomics and every thread is assigned one shard at first
//!   use, so concurrent increments from pool workers never contend on one
//!   cache line. Reading a counter sums the shards.
//! * **Gauges** are single relaxed atomics (`set` / `record_max`).
//! * The registry mutex is touched only at metric *registration* (first use
//!   of a [`LazyCounter`]/[`LazyGauge`]/[`LazyHistogram`] site) and at
//!   exposition time — never on the recording hot path.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Counter shard count. Threads are assigned shards round-robin, so up
/// to this many threads increment without sharing a cache line.
pub const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// One cache line holding one shard's count.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

/// A monotonically increasing sharded counter.
#[derive(Debug)]
pub struct Counter {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    /// Optional `key="value"` label pair.
    pub(crate) label: Option<(&'static str, String)>,
    shards: [Shard; SHARDS],
}

impl Counter {
    fn new(name: &'static str, help: &'static str, label: Option<(&'static str, String)>) -> Self {
        Counter {
            name,
            help,
            label,
            shards: std::array::from_fn(|_| Shard(AtomicU64::new(0))),
        }
    }

    /// Adds `n` to this thread's shard (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        let i = MY_SHARD.with(|s| *s);
        self.shards[i].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sums all shards).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A last-value / high-water-mark gauge.
#[derive(Debug)]
pub struct Gauge {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) label: Option<(&'static str, String)>,
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sort key inside the registry: `(metric name, rendered label)`. The
/// exposition order is this key's `Ord`, so output is deterministic.
type Key = (String, String);

fn key_of(name: &str, label: Option<(&str, &str)>) -> Key {
    (
        name.to_string(),
        label
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .unwrap_or_default(),
    )
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<Key, &'static Counter>,
    gauges: BTreeMap<Key, &'static Gauge>,
    histograms: BTreeMap<Key, &'static Histogram>,
}

/// A metrics registry. Almost every caller wants [`global`]; tests build
/// private instances so exposition output can be compared exactly.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            }),
        }
    }

    /// The counter named `name` (registered on first use). Repeated
    /// calls with the same name return the same counter; `help` is
    /// taken from the first registration.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        self.counter_labeled_opt(name, help, None)
    }

    /// A labeled counter: one time series per `(name, value)` pair.
    pub fn counter_labeled(
        &self,
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label_value: &str,
    ) -> &'static Counter {
        self.counter_labeled_opt(name, help, Some((label_key, label_value)))
    }

    fn counter_labeled_opt(
        &self,
        name: &'static str,
        help: &'static str,
        label: Option<(&'static str, &str)>,
    ) -> &'static Counter {
        let key = key_of(name, label);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = inner.counters.get(&key) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::new(Counter::new(
            name,
            help,
            label.map(|(k, v)| (k, v.to_string())),
        )));
        inner.counters.insert(key, leaked);
        leaked
    }

    /// The gauge named `name` (registered on first use).
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        let key = key_of(name, None);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(g) = inner.gauges.get(&key) {
            return g;
        }
        let leaked: &'static Gauge = Box::leak(Box::new(Gauge {
            name,
            help,
            label: None,
            value: AtomicU64::new(0),
        }));
        inner.gauges.insert(key, leaked);
        leaked
    }

    /// The histogram named `name` (registered on first use).
    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        let key = key_of(name, None);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = inner.histograms.get(&key) {
            return h;
        }
        let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new(name, help)));
        inner.histograms.insert(key, leaked);
        leaked
    }

    /// The value of a counter if it has been registered (exact key
    /// match on name and optional label), else 0. For tests and
    /// assertions — never registers.
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        let key = key_of(name, label);
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters
            .get(&key)
            .map(|c| c.value())
            .unwrap_or(0)
    }

    /// Snapshot of every registered metric, in deterministic
    /// `(name, label)` order.
    pub(crate) fn collect(&self) -> Collected {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Collected {
            counters: inner
                .counters
                .values()
                .map(|c| (c.name, c.help, c.label.clone(), c.value()))
                .collect(),
            gauges: inner
                .gauges
                .values()
                .map(|g| (g.name, g.help, g.label.clone(), g.value()))
                .collect(),
            histograms: inner
                .histograms
                .values()
                .map(|h| (h.name, h.help, h.bucket_counts(), h.snapshot()))
                .collect(),
        }
    }
}

/// One scalar metric in a snapshot: `(name, help, label, value)`.
pub(crate) type CollectedScalar = (
    &'static str,
    &'static str,
    Option<(&'static str, String)>,
    u64,
);

/// Materialized metric values handed to the exposition formats.
pub(crate) struct Collected {
    pub counters: Vec<CollectedScalar>,
    pub gauges: Vec<CollectedScalar>,
    pub histograms: Vec<(
        &'static str,
        &'static str,
        [u64; crate::histogram::BUCKET_COUNT],
        HistogramSnapshot,
    )>,
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every [`LazyCounter`]/[`LazyGauge`]/
/// [`LazyHistogram`] site registers into.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A `const`-constructible counter handle for `static` declarations at
/// instrumentation sites; registers into [`global`] on first record.
#[derive(Debug)]
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    label: Option<(&'static str, &'static str)>,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// A counter site with no labels.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyCounter {
            name,
            help,
            label: None,
            cell: OnceLock::new(),
        }
    }

    /// A counter site carrying one static `key="value"` label.
    pub const fn labeled(
        name: &'static str,
        help: &'static str,
        label_key: &'static str,
        label_value: &'static str,
    ) -> Self {
        LazyCounter {
            name,
            help,
            label: Some((label_key, label_value)),
            cell: OnceLock::new(),
        }
    }

    fn counter(&self) -> &'static Counter {
        self.cell.get_or_init(|| match self.label {
            None => global().counter(self.name, self.help),
            Some((k, v)) => global().counter_labeled(self.name, self.help, k, v),
        })
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.counter().add(n);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn value(&self) -> u64 {
        self.counter().value()
    }
}

/// A `const`-constructible gauge handle for `static` declarations.
#[derive(Debug)]
pub struct LazyGauge {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// A gauge site.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyGauge {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn gauge(&self) -> &'static Gauge {
        self.cell
            .get_or_init(|| global().gauge(self.name, self.help))
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.gauge().set(v);
    }

    /// Raises the gauge to `v` if it is below it.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.gauge().record_max(v);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.gauge().value()
    }
}

/// A `const`-constructible histogram handle for `static` declarations.
#[derive(Debug)]
pub struct LazyHistogram {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// A histogram site.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyHistogram {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn histogram(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| global().histogram(self.name, self.help))
    }

    /// Records `ns` nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        self.histogram().observe_ns(ns);
    }

    /// Records a [`std::time::Duration`].
    #[inline]
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Summarizes the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.histogram().snapshot()
    }
}

/// A counter family with a *dynamic* label value (e.g. a failpoint
/// site name). Each distinct value is interned as its own time series;
/// recording takes the registry lock, so families suit rare events —
/// hot paths should use static [`LazyCounter::labeled`] handles.
#[derive(Debug)]
pub struct CounterFamily {
    name: &'static str,
    help: &'static str,
    label_key: &'static str,
}

impl CounterFamily {
    /// A family site.
    pub const fn new(name: &'static str, help: &'static str, label_key: &'static str) -> Self {
        CounterFamily {
            name,
            help,
            label_key,
        }
    }

    /// Adds `n` to the series labeled `label_value`.
    pub fn add(&self, label_value: &str, n: u64) {
        global()
            .counter_labeled(self.name, self.help, self.label_key, label_value)
            .add(n);
    }

    /// Adds 1 to the series labeled `label_value`.
    pub fn inc(&self, label_value: &str) {
        self.add(label_value, 1);
    }
}

/// The value of a global-registry counter, 0 when never registered.
/// `label` is the optional `(key, value)` pair of the series.
pub fn counter_value(name: &str, label: Option<(&str, &str)>) -> u64 {
    global().counter_value(name, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_over_shards() {
        let reg = Registry::new();
        let c = reg.counter("t_total", "help");
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        // Same name → same counter.
        assert_eq!(reg.counter("t_total", "ignored").value(), 4);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let reg = Registry::new();
        reg.counter_labeled("t_by_kind", "h", "kind", "a").add(1);
        reg.counter_labeled("t_by_kind", "h", "kind", "b").add(2);
        assert_eq!(reg.counter_value("t_by_kind", Some(("kind", "a"))), 1);
        assert_eq!(reg.counter_value("t_by_kind", Some(("kind", "b"))), 2);
        assert_eq!(reg.counter_value("t_by_kind", None), 0);
        assert_eq!(reg.counter_value("absent", None), 0);
    }

    #[test]
    fn gauges_set_and_record_max() {
        let reg = Registry::new();
        let g = reg.gauge("t_gauge", "h");
        g.set(5);
        g.record_max(3);
        assert_eq!(g.value(), 5);
        g.record_max(9);
        assert_eq!(g.value(), 9);
    }
}

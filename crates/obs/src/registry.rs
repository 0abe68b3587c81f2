//! The metrics registry and the metrics that register themselves in it.
//!
//! # Recording cost
//!
//! * Every metric is a `const`-constructible `static` at its
//!   instrumentation site. Its first record registers a `&'static`
//!   reference to it in [`global`]; every record checks that with one
//!   relaxed flag load.
//! * **Counters** are sharded: each counter holds [`SHARDS`] cache-line-
//!   padded relaxed atomics and every thread is assigned one shard at first
//!   use, so concurrent increments from pool workers never contend on one
//!   cache line. Reading a counter sums the shards.
//! * **Gauges** are single relaxed atomics (`set` / `record_max`).
//! * The registry mutex is touched only at registration and at exposition
//!   time — never on the recording hot path.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counter shard count. Threads are assigned shards round-robin, so up
/// to this many threads increment without sharing a cache line.
pub const SHARDS: usize = 16;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// What every metric carries besides its data: its name and whether a
/// registry holds it yet.
#[derive(Debug)]
pub(crate) struct Meta {
    pub(crate) name: &'static str,
    registered: AtomicBool,
}

impl Meta {
    pub(crate) const fn new(name: &'static str) -> Self {
        Meta {
            name,
            registered: AtomicBool::new(false),
        }
    }

    /// True once the metric is in a registry: the one load every record
    /// pays for its registration. `Relaxed` suffices: the flag publishes
    /// nothing (the map is read under its mutex), and a thread that reads
    /// a stale `false` only registers again, which changes nothing.
    #[inline]
    pub(crate) fn registered(&self) -> bool {
        self.registered.load(Ordering::Relaxed)
    }
}

/// A counter's optional `key="value"` label pair.
pub(crate) type Label = Option<(&'static str, &'static str)>;

/// One cache line holding one shard's count.
#[repr(align(64))]
#[derive(Debug)]
struct Shard(AtomicU64);

/// A monotonically increasing sharded counter.
#[derive(Debug)]
pub struct Counter {
    meta: Meta,
    label: Label,
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A counter with no labels.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            meta: Meta::new(name),
            label: None,
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
        }
    }

    /// A counter carrying one `key="value"` label: one series of the
    /// metric `name`.
    pub const fn labeled(
        name: &'static str,
        label_key: &'static str,
        label_value: &'static str,
    ) -> Self {
        Counter {
            label: Some((label_key, label_value)),
            ..Counter::new(name)
        }
    }

    /// Puts this counter in `registry`. Its first record does this for
    /// [`global`]; a test calls it first to render a private registry.
    #[cold]
    pub fn register(&'static self, registry: &Registry) {
        registry.insert(&self.meta, self.label, Metric::Counter(self));
    }

    /// Adds `n` to this thread's shard (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !self.meta.registered() {
            self.register(global());
        }
        let i = MY_SHARD.with(|s| *s);
        self.shards[i].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&'static self) {
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
    meta: Meta,
    value: AtomicU64,
}

impl Gauge {
    /// A gauge.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            meta: Meta::new(name),
            value: AtomicU64::new(0),
        }
    }

    /// Puts this gauge in `registry` (as [`Counter::register`]).
    #[cold]
    pub fn register(&'static self, registry: &Registry) {
        registry.insert(&self.meta, None, Metric::Gauge(self));
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !self.meta.registered() {
            self.register(global());
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water mark).
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if !self.meta.registered() {
            self.register(global());
        }
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A registered metric.
#[derive(Clone, Copy)]
pub(crate) enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
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

/// A metrics registry: the metrics it holds, by `(name, label)`. Almost
/// every caller wants [`global`]; tests build private instances so
/// exposition output can be compared exactly.
pub struct Registry {
    metrics: Mutex<BTreeMap<Key, Metric>>,
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
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<Key, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `metric` under its `(name, label)` unless a metric holds that
    /// series already (library code makes each series once, which
    /// `tests/invariants.rs` checks), and marks it registered.
    pub(crate) fn insert(&self, meta: &Meta, label: Option<(&str, &str)>, metric: Metric) {
        let mut metrics = self.lock();
        metrics.entry(key_of(meta.name, label)).or_insert(metric);
        meta.registered.store(true, Ordering::Relaxed);
    }

    /// The series of `family` labeled `value`, made and registered on its
    /// first use.
    fn family_counter(&self, family: &CounterFamily, value: &str) -> &'static Counter {
        let key = key_of(family.name, Some((family.label_key, value)));
        let mut metrics = self.lock();
        if let Some(&Metric::Counter(c)) = metrics.get(&key) {
            return c;
        }
        let value: &'static str = Box::leak(value.into());
        let c: &'static Counter = Box::leak(Box::new(Counter::labeled(
            family.name,
            family.label_key,
            value,
        )));
        c.meta.registered.store(true, Ordering::Relaxed);
        metrics.insert(key, Metric::Counter(c));
        c
    }

    /// The value of a counter if it has been registered (exact key
    /// match on name and optional label), else 0. For tests and
    /// assertions — never registers.
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        match self.lock().get(&key_of(name, label)) {
            Some(Metric::Counter(c)) => c.value(),
            _ => 0,
        }
    }

    /// Snapshot of every registered metric, in deterministic
    /// `(name, label)` order.
    pub(crate) fn collect(&self) -> Collected {
        let mut out = Collected::default();
        for metric in self.lock().values() {
            match *metric {
                Metric::Counter(c) => out.counters.push((c.meta.name, c.label, c.value())),
                Metric::Gauge(g) => out.gauges.push((g.meta.name, g.value())),
                Metric::Histogram(h) => out.histograms.push((h.meta.name, h.snapshot())),
            }
        }
        out
    }
}

/// Materialized metric values handed to the JSON snapshot.
#[derive(Default)]
pub(crate) struct Collected {
    /// `(name, label, value)`.
    pub counters: Vec<(&'static str, Label, u64)>,
    /// `(name, value)`.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, snapshot)`.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every metric registers into on its first
/// record.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A counter family with a *dynamic* label value (e.g. a failpoint
/// site name). Each distinct value is interned as its own time series;
/// recording takes the registry lock, so families suit rare events —
/// hot paths should use [`Counter::labeled`] statics.
#[derive(Debug)]
pub struct CounterFamily {
    name: &'static str,
    label_key: &'static str,
}

impl CounterFamily {
    /// A family site.
    pub const fn new(name: &'static str, label_key: &'static str) -> Self {
        CounterFamily { name, label_key }
    }

    /// Adds `n` to the series labeled `label_value`.
    pub fn add(&self, label_value: &str, n: u64) {
        global().family_counter(self, label_value).add(n);
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

    fn leak<T>(metric: T) -> &'static T {
        Box::leak(Box::new(metric))
    }

    #[test]
    fn counters_sum_over_shards() {
        let reg = Registry::new();
        let c = leak(Counter::new("t_total"));
        c.register(&reg);
        c.add(3);
        c.inc();
        assert_eq!(c.value(), 4);
        assert_eq!(reg.counter_value("t_total", None), 4);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let reg = Registry::new();
        let a = leak(Counter::labeled("t_by_kind", "kind", "a"));
        let b = leak(Counter::labeled("t_by_kind", "kind", "b"));
        a.register(&reg);
        b.register(&reg);
        a.add(1);
        b.add(2);
        assert_eq!(reg.counter_value("t_by_kind", Some(("kind", "a"))), 1);
        assert_eq!(reg.counter_value("t_by_kind", Some(("kind", "b"))), 2);
        assert_eq!(reg.counter_value("t_by_kind", None), 0);
        assert_eq!(reg.counter_value("absent", None), 0);
    }

    #[test]
    fn first_record_registers_in_the_global_registry() {
        static C: Counter = Counter::labeled("t_global_total", "kind", "first");
        let series = Some(("kind", "first"));
        assert_eq!(counter_value("t_global_total", series), 0);
        C.add(2);
        C.inc();
        assert_eq!(counter_value("t_global_total", series), 3);
    }

    #[test]
    fn gauges_set_and_record_max() {
        let g = leak(Gauge::new("t_gauge"));
        g.register(&Registry::new());
        g.set(5);
        g.record_max(3);
        assert_eq!(g.value(), 5);
        g.record_max(9);
        assert_eq!(g.value(), 9);
    }
}

//! Per-query span tracing.
//!
//! A [`QueryTrace`] records the stage breakdown of one search —
//! `coarse_quantize → residual/tables → probe[i] scan → dispatch → merge` —
//! with one [`ProbeTrace`] per probed partition. Tracing is an explicit
//! per-query opt-in: the caller passes a trace to the search entry point,
//! and an untraced query fills none.

/// How one probed partition ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Scanned to completion.
    Ok,
    /// The scan failed (e.g. an injected fault) and was dropped.
    Failed,
    /// Skipped before its table build: the deadline had expired.
    Skipped,
}

impl ProbeOutcome {
    /// Lowercase label used in waterfalls and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ProbeOutcome::Ok => "ok",
            ProbeOutcome::Failed => "failed",
            ProbeOutcome::Skipped => "skipped",
        }
    }
}

/// The record of one probed partition inside a [`QueryTrace`].
#[derive(Debug, Clone)]
pub struct ProbeTrace {
    /// Partition (inverted-list) index that was probed.
    pub partition: usize,
    /// Scan backend that ran the probe.
    pub backend: &'static str,
    /// How the probe ended.
    pub outcome: ProbeOutcome,
    /// Vectors scanned.
    pub scanned: u64,
    /// Vectors pruned before exact distance evaluation.
    pub pruned: u64,
    /// Vectors the scan's warm-up evaluated exactly before the fast path
    /// (Fast Scan: the groups nearest to the query, docs/FASTSCAN.md §2).
    pub warmup: u64,
    /// Vectors that survived the lower-bound test and were evaluated
    /// exactly. For a pruning backend `warmup + pruned + verified ==
    /// scanned`; the exhaustive backends leave all three at 0.
    pub verified: u64,
    /// Candidates the result heap took of the `warmup + verified` offered
    /// (Fast Scan only).
    pub accepted: u64,
    /// Pruned vectors whose whole group the traversal passed over unread
    /// (Fast Scan only; `skipped <= pruned`, docs/FASTSCAN.md §6).
    pub skipped: u64,
    /// The entry bound the probe scanned under — the nearest probe's k-th
    /// distance — or `None` when it had none: the nearest probe itself,
    /// every probe when the nearest one returned fewer than `topk`
    /// neighbors or failed, and probes that did not scan.
    pub bound: Option<f32>,
    /// Time spent building/recomputing distance tables (ns).
    pub tables_ns: u64,
    /// Time spent scanning (ns).
    pub scan_ns: u64,
    /// Shards the scan ran in: 2 for a nearest probe whose Fast Scan split
    /// on the pool (docs/FASTSCAN.md §9), 1 for any other scan, 0 when the
    /// probe scanned nothing.
    pub shards: usize,
}

impl ProbeTrace {
    /// A probe that did no scan work (failed or skipped): the
    /// outcome carries all the information, every counter is zero.
    pub fn outcome_only(partition: usize, backend: &'static str, outcome: ProbeOutcome) -> Self {
        ProbeTrace {
            partition,
            backend,
            outcome,
            scanned: 0,
            pruned: 0,
            warmup: 0,
            verified: 0,
            accepted: 0,
            skipped: 0,
            bound: None,
            tables_ns: 0,
            scan_ns: 0,
            shards: 0,
        }
    }

    /// Fraction of scanned vectors that were pruned (0 when nothing was
    /// scanned).
    pub fn pruned_fraction(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.pruned as f64 / self.scanned as f64
        }
    }
}

/// The stage breakdown of one search, reusable across queries via
/// [`QueryTrace::reset`].
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Coarse quantization (partition selection) time (ns).
    pub coarse_ns: u64,
    /// The probe phase's wall time outside every probe's tables and scan
    /// stages (ns): handing the later probes to the pool and waiting for
    /// them. Floored at 0, which it is whenever parallel probes' stages sum
    /// past the fan-out's wall time.
    pub dispatch_ns: u64,
    /// Result-merge time (ns).
    pub merge_ns: u64,
    /// Whole-query wall time (ns).
    pub total_ns: u64,
    /// Per-probe records, in probe order.
    pub probes: Vec<ProbeTrace>,
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Clears the trace for reuse, keeping the probe allocation.
    pub fn reset(&mut self) {
        self.coarse_ns = 0;
        self.dispatch_ns = 0;
        self.merge_ns = 0;
        self.total_ns = 0;
        self.probes.clear();
    }

    /// Sum of all recorded stage durations (ns). The stages of a
    /// sequentially executed query tile its wall time, so this is
    /// [`QueryTrace::total_ns`] for it; parallel probes overlap and sum past
    /// it.
    pub fn stage_sum_ns(&self) -> u64 {
        self.coarse_ns
            + self.dispatch_ns
            + self.merge_ns
            + self
                .probes
                .iter()
                .map(|p| p.tables_ns + p.scan_ns)
                .sum::<u64>()
    }

    /// Renders the human-readable waterfall the CLI prints to stderr for
    /// `query --trace`:
    ///
    /// ```text
    /// query trace: total 412.3µs, 4 probes
    ///   coarse_quantize      12.3µs   3.0% |#
    ///   probe[0] p=17  fastscan    tables  40.1µs scan 210.0µs  scanned=1200 pruned=73.2% skipped=512 warmup=75 verified=247 accepted=31 shards=2 bound=- ok
    ///   probe[1] p=3   fastscan    tables  38.7µs scan 100.5µs  scanned=800 pruned=91.0% skipped=640 warmup=0 verified=72 accepted=4 bound=5120.5 ok
    ///   dispatch              8.6µs   2.1% |#
    ///   merge                 2.1µs   0.5% |
    ///   stage sum 412.3µs (100.0% of wall)
    /// ```
    pub fn render_waterfall(&self) -> String {
        let total = self.total_ns.max(1);
        let pct = |ns: u64| ns as f64 * 100.0 / total as f64;
        let stage = |name: &str, ns: u64| {
            let bar = "#".repeat(((pct(ns) / 2.5).round() as usize).min(40));
            format!("  {name:<18} {:>9} {:>5.1}% |{bar}\n", fmt_ns(ns), pct(ns))
        };
        let mut out = format!(
            "query trace: total {}, {} probes\n",
            fmt_ns(self.total_ns),
            self.probes.len()
        );
        out.push_str(&stage("coarse_quantize", self.coarse_ns));
        for (i, p) in self.probes.iter().enumerate() {
            out.push_str(&format!(
                "  probe[{i}] p={:<4} {:<12} tables {:>9} scan {:>9}  scanned={} pruned={:.1}% skipped={} warmup={} verified={} accepted={}{} bound={} {}\n",
                p.partition,
                p.backend,
                fmt_ns(p.tables_ns),
                fmt_ns(p.scan_ns),
                p.scanned,
                p.pruned_fraction() * 100.0,
                p.skipped,
                p.warmup,
                p.verified,
                p.accepted,
                // Only a split shows: every other scan ran in one piece.
                if p.shards > 1 {
                    format!(" shards={}", p.shards)
                } else {
                    String::new()
                },
                p.bound.map_or_else(|| "-".to_string(), |b| format!("{b:.1}")),
                p.outcome.name()
            ));
        }
        out.push_str(&stage("dispatch", self.dispatch_ns));
        out.push_str(&stage("merge", self.merge_ns));
        out.push_str(&format!(
            "  stage sum {} ({:.1}% of wall)\n",
            fmt_ns(self.stage_sum_ns()),
            pct(self.stage_sum_ns())
        ));
        out
    }
}

/// Formats a nanosecond duration with a human unit (`ns`, `µs`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        QueryTrace {
            coarse_ns: 10_000,
            dispatch_ns: 3_000,
            merge_ns: 5_000,
            total_ns: 120_000,
            probes: vec![
                ProbeTrace {
                    partition: 17,
                    backend: "avx2",
                    outcome: ProbeOutcome::Ok,
                    scanned: 1000,
                    pruned: 900,
                    warmup: 40,
                    verified: 60,
                    accepted: 7,
                    skipped: 800,
                    bound: Some(1234.56),
                    tables_ns: 30_000,
                    scan_ns: 60_000,
                    shards: 2,
                },
                ProbeTrace {
                    partition: 3,
                    backend: "naive",
                    outcome: ProbeOutcome::Skipped,
                    scanned: 0,
                    pruned: 0,
                    warmup: 0,
                    verified: 0,
                    accepted: 0,
                    skipped: 0,
                    bound: None,
                    tables_ns: 0,
                    scan_ns: 0,
                    shards: 0,
                },
            ],
        }
    }

    #[test]
    fn stage_sum_adds_all_stages() {
        assert_eq!(
            sample().stage_sum_ns(),
            10_000 + 3_000 + 5_000 + 30_000 + 60_000
        );
    }

    #[test]
    fn pruned_fraction_handles_zero_scanned() {
        let t = sample();
        assert_eq!(t.probes[0].pruned_fraction(), 0.9);
        assert_eq!(t.probes[1].pruned_fraction(), 0.0);
    }

    #[test]
    fn waterfall_names_every_stage_and_outcome() {
        let text = sample().render_waterfall();
        assert!(text.contains("coarse_quantize"));
        assert!(text.contains("probe[0] p=17"));
        assert!(text.contains("avx2"));
        assert!(text.contains(
            "pruned=90.0% skipped=800 warmup=40 verified=60 accepted=7 shards=2 bound=1234.6 ok"
        ));
        assert!(text.contains("skipped=0 warmup=0 verified=0 accepted=0 bound=- skipped"));
        assert!(text.contains("dispatch               3.0µs   2.5% |#"));
        assert!(text.contains("merge"));
        assert!(text.contains("stage sum"));
        assert!(text.contains("90.0% of wall"));
    }

    #[test]
    fn reset_keeps_allocation_and_clears_data() {
        let mut t = sample();
        t.reset();
        assert_eq!(t.total_ns, 0);
        assert!(t.probes.is_empty());
        assert_eq!(t.stage_sum_ns(), 0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}

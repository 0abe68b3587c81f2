//! Order statistics, window segments and the open-loop schedule.

use crate::spec::Better;
use std::time::Duration;

/// The `p`-th percentile (0–100) by nearest rank; 0 for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Like Python, extrapolate when the clamp moved `j`.
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// One completed operation of a measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the operation counts as having happened, from the window's
    /// start: its due time in an open loop, its completion in a closed one.
    pub at: Duration,
    /// When its reply arrived, from the window's start.
    pub done: Duration,
    /// Latency: from the due time in an open loop, from the send otherwise.
    pub latency: Duration,
    /// Queries the operation carried (32 for a batch frame).
    pub queries: u32,
}

/// Rate and latency of one window, each taken over its segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// One window summarised: as measured, and as scaled to a host of speed 1.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub raw: Rates,
    pub scaled: Rates,
    /// Median over the segments of the host speed they were scaled by.
    pub host_speed: f64,
    pub operations: usize,
    /// Latency samples in the smallest segment (what p99 rests on).
    pub min_segment_samples: usize,
}

/// How a window's load was generated, which decides how its rate is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `lanes` callers, each sending its next operation when the last one
    /// returned, pausing together now and then to measure the host. A
    /// caller is busy for the sum of its latencies, so the rate is queries
    /// over that busy time, and a slower host lowers it.
    Closed { lanes: usize },
    /// Requests sent on a schedule: the rate is what was completed over the
    /// time it took, and the host's speed has no part in it.
    Open,
}

/// How far the host-speed readings of a window are to be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readings {
    /// Taken on the very threads that carry the load, every few tens of
    /// milliseconds: each segment is scaled by its own readings.
    PerSegment,
    /// Taken on threads that only stand in for the ones under load: a single
    /// reading says little, so every segment is scaled by the median of the
    /// whole run's readings.
    WholeRun,
}

/// Cuts `window` into `segments` equal parts by `Sample::at` and reports
/// the median or a quartile of the per-segment rates and percentiles, so
/// that disturbed stretches of a run cannot move the result. `speeds` are the
/// host-speed readings taken in the window's pauses, as (time from the
/// window's start, speed); `trust` says whether a segment is scaled
/// by its own readings or by the whole run's; without readings nothing is
/// scaled.
pub fn summarize(
    samples: &[Sample],
    window: Duration,
    segments: usize,
    kind: Loop,
    speeds: &[(Duration, f64)],
    trust: Readings,
) -> WindowSummary {
    let seg_len = window.as_secs_f64() / segments as f64;
    let segment_of = |at: Duration| (at.as_secs_f64() / seg_len) as usize;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); segments];
    let mut queries = vec![0u64; segments];
    let mut last_done = vec![0f64; segments];
    for s in samples {
        let i = segment_of(s.at);
        if i < segments {
            latencies[i].push(s.latency.as_secs_f64() * 1e3);
            queries[i] += u64::from(s.queries);
            last_done[i] = last_done[i].max(s.done.as_secs_f64());
        }
    }
    for l in &mut latencies {
        l.sort_by(f64::total_cmp);
    }
    // Medians, not means: one stalled reading must not move a segment.
    let middle = |readings: Vec<f64>| (!readings.is_empty()).then(|| median(&readings));
    let overall = middle(speeds.iter().map(|r| r.1).collect()).unwrap_or(1.0);
    let speed: Vec<f64> = (0..segments)
        .map(|i| {
            let own = || speeds.iter().filter(|r| segment_of(r.0) == i).map(|r| r.1);
            match trust {
                Readings::PerSegment => middle(own().collect()).unwrap_or(overall),
                Readings::WholeRun => overall,
            }
        })
        .collect();
    let rate = |i: usize| match kind {
        Loop::Closed { lanes } => {
            let busy_s = latencies[i].iter().sum::<f64>() / 1e3 / lanes as f64;
            (queries[i] as f64 / busy_s, 1.0 / speed[i])
        }
        Loop::Open => {
            let from = if i == 0 { 0.0 } else { last_done[i - 1] };
            (queries[i] as f64 / (last_done[i] - from), 1.0)
        }
    };
    // Segments scaled by their own readings differ by the noise of those
    // readings, which has no sign: their median is taken. The others differ
    // by what the host did to them, which is only ever for the worse and at
    // times hits most of them: the calmer quarter is what the system does
    // when left alone, so a rate is read at the upper quartile of the
    // per-segment values and a latency at the lower one.
    let per_segment = !speeds.is_empty() && trust == Readings::PerSegment;
    let calm = |better: Better, f: &dyn Fn(usize) -> f64| {
        let values: Vec<f64> = (0..segments).map(f).filter(|v| v.is_finite()).collect();
        // Below four values a quartile would be extrapolated.
        let quartiles = quartiles(&values).filter(|_| values.len() >= 4 && !per_segment);
        match (quartiles, better) {
            (Some((_, upper)), Better::Higher) => upper,
            (Some((lower, _)), Better::Lower) => lower,
            (None, _) => median(&values),
        }
    };
    WindowSummary {
        raw: Rates {
            qps: calm(Better::Higher, &|i| rate(i).0),
            p50_ms: calm(Better::Lower, &|i| percentile(&latencies[i], 50.0)),
            p99_ms: calm(Better::Lower, &|i| percentile(&latencies[i], 99.0)),
        },
        scaled: Rates {
            qps: calm(Better::Higher, &|i| rate(i).0 * rate(i).1),
            p50_ms: calm(Better::Lower, &|i| {
                percentile(&latencies[i], 50.0) * speed[i]
            }),
            p99_ms: calm(Better::Lower, &|i| {
                percentile(&latencies[i], 99.0) * speed[i]
            }),
        },
        host_speed: median(&speed),
        operations: latencies.iter().map(Vec::len).sum(),
        min_segment_samples: latencies.iter().map(Vec::len).min().unwrap_or(0),
    }
}

/// The open-loop schedule: `rate` requests per second in total, dealt
/// round-robin to `connections` so each sends at an even spacing.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate: f64,
    pub connections: usize,
}

impl Schedule {
    /// When connection `conn`'s `k`-th request is due, from the start.
    pub fn due(&self, conn: usize, k: u64) -> Duration {
        let slot = k * self.connections as u64 + conn as u64;
        Duration::from_secs_f64(slot as f64 / self.rate)
    }
}

/// One open-loop request: when it was due, was sent and was answered.
#[derive(Debug, Clone, Copy)]
pub struct Paced {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Paced {
    /// Latency from the instant the request was due, so the wait a stall
    /// imposes on the requests behind it is counted.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How long after its due time the request left the generator.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    /// `n` back-to-back operations of `each` ms, the first starting at `from` ms.
    fn back_to_back(from: u64, n: u64, each: u64, queries: u32) -> Vec<Sample> {
        (1..=n)
            .map(|i| {
                let done = ms(from + i * each) - Duration::from_micros(1);
                Sample {
                    at: done,
                    done,
                    latency: ms(each),
                    queries,
                }
            })
            .collect()
    }

    #[test]
    fn disturbed_segments_do_not_move_the_summary_while_a_quarter_is_calm() {
        // Eight 1 s segments of 1 ms operations; five of them stall: their
        // operations take 50 ms each.
        let mut samples = Vec::new();
        for seg in 0..8u64 {
            let (n, each) = if seg % 3 == 0 { (1000, 1) } else { (20, 50) };
            samples.extend(back_to_back(seg * 1000, n, each, 1));
        }
        let s = summarize(
            &samples,
            ms(8000),
            8,
            Loop::Closed { lanes: 1 },
            &[],
            Readings::PerSegment,
        );
        assert_eq!(
            s.raw,
            Rates {
                qps: 1000.0,
                p50_ms: 1.0,
                p99_ms: 1.0
            }
        );
        assert_eq!(s.scaled, s.raw, "no readings, no scaling");
        assert_eq!(s.operations, 3100);
        assert_eq!(s.min_segment_samples, 20);
    }

    #[test]
    fn scaled_segments_are_read_at_their_median() {
        // Eight segments of 10 ms operations; the readings of two of them
        // are off by a factor either way.
        let samples = back_to_back(0, 800, 10, 1);
        let speeds: Vec<(Duration, f64)> = (0..8u64)
            .map(|i| {
                (
                    ms(i * 1000 + 500),
                    [1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0][i as usize],
                )
            })
            .collect();
        let s = summarize(
            &samples,
            ms(8000),
            8,
            Loop::Closed { lanes: 1 },
            &speeds,
            Readings::PerSegment,
        );
        assert_eq!(s.scaled.p50_ms, 10.0);
        assert!((s.scaled.qps - 100.0).abs() < 1e-9, "{}", s.scaled.qps);
    }

    #[test]
    fn loosely_taken_readings_scale_the_whole_run_by_their_median() {
        // Eight calm segments of 10 ms operations on a host at half speed;
        // single readings are all over the place, their median is not.
        let samples = back_to_back(0, 800, 10, 1);
        let readings = [0.2, 0.5, 0.9, 0.5, 0.4, 0.5, 0.7, 0.5, 0.5];
        let speeds: Vec<(Duration, f64)> = readings
            .iter()
            .enumerate()
            .map(|(i, &r)| (ms(i as u64 * 800 + 100), r))
            .collect();
        let kind = Loop::Closed { lanes: 1 };
        let s = summarize(&samples, ms(8000), 8, kind, &speeds, Readings::WholeRun);
        assert_eq!(s.scaled.p50_ms, 5.0);
        assert!((s.scaled.qps - 200.0).abs() < 1e-9, "{}", s.scaled.qps);
        assert_eq!(s.host_speed, 0.5);
    }

    #[test]
    fn samples_past_the_window_are_dropped_and_batches_count_queries() {
        // Two lanes, each sending 32-query frames of 100 ms back to back.
        let mut samples = back_to_back(0, 21, 100, 32);
        samples.extend(back_to_back(0, 21, 100, 32));
        let s = summarize(
            &samples,
            ms(2000),
            2,
            Loop::Closed { lanes: 2 },
            &[],
            Readings::WholeRun,
        );
        assert_eq!(s.operations, 40);
        assert!((s.raw.qps - 640.0).abs() < 1e-9, "{}", s.raw.qps);
    }

    #[test]
    fn a_closed_loop_rate_leaves_out_the_pauses() {
        // 10 ms operations with a 10 ms pause after each: busy half the
        // time, yet the rate is that of the busy time.
        let samples: Vec<Sample> = (0..50u64)
            .map(|i| {
                let done = ms(i * 20 + 10);
                Sample {
                    at: done,
                    done,
                    latency: ms(10),
                    queries: 1,
                }
            })
            .collect();
        let s = summarize(
            &samples,
            ms(1000),
            1,
            Loop::Closed { lanes: 1 },
            &[],
            Readings::PerSegment,
        );
        assert!((s.raw.qps - 100.0).abs() < 1e-9, "{}", s.raw.qps);
    }

    #[test]
    fn an_open_loop_rate_is_measured_not_read_off_the_schedule() {
        // Binned by due time, completed a little later each: the rate is
        // what the replies show, a shade under the scheduled 1000 q/s.
        let samples: Vec<Sample> = (0..2000u64)
            .map(|k| Sample {
                at: ms(k),
                done: ms(k) + Duration::from_micros(900 + k / 10),
                latency: ms(1),
                queries: 1,
            })
            .collect();
        let s = summarize(
            &samples,
            ms(2000),
            2,
            Loop::Open,
            &[(ms(500), 0.5)],
            Readings::PerSegment,
        );
        assert!(s.raw.qps < 1000.0 && s.raw.qps > 990.0, "{}", s.raw.qps);
        // The schedule, not the host, sets an open loop's rate.
        assert_eq!(s.scaled.qps, s.raw.qps);
        assert_eq!(s.scaled.p50_ms, 0.5);
    }

    #[test]
    fn a_host_at_half_speed_is_scaled_to_full_speed_segment_by_segment() {
        // The same work: 10 ms operations on a full-speed host for one
        // second, 20 ms ones while the host runs at half speed.
        let mut samples = back_to_back(0, 100, 10, 1);
        samples.extend(back_to_back(1000, 50, 20, 1));
        let speeds = [
            (ms(300), 1.0),
            (ms(700), 1.0),
            (ms(1200), 0.5),
            (ms(1500), 0.5),
            (ms(1800), 9.0),
        ];
        let s = summarize(
            &samples,
            ms(2000),
            2,
            Loop::Closed { lanes: 1 },
            &speeds,
            Readings::PerSegment,
        );
        assert_eq!(s.raw.p50_ms, 15.0);
        assert_eq!(s.scaled.p50_ms, 10.0);
        assert!((s.raw.qps - 75.0).abs() < 1e-9, "{}", s.raw.qps);
        assert!((s.scaled.qps - 100.0).abs() < 1e-9, "{}", s.scaled.qps);
        assert_eq!(s.host_speed, 0.75);
    }

    #[test]
    fn schedule_spaces_requests_evenly_across_connections() {
        let s = Schedule {
            rate: 1000.0,
            connections: 2,
        };
        assert_eq!(s.due(0, 0), Duration::ZERO);
        assert_eq!(s.due(1, 0), ms(1));
        assert_eq!(s.due(0, 1), ms(2));
        assert_eq!(s.due(1, 3), ms(7));
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send() {
        // A 5 ms stall on request 0 delays request 1 (due at 2 ms) until
        // 5 ms; served in 1 ms, it still took 4 ms from when it was due.
        let first = Paced {
            due: ms(0),
            sent: ms(0),
            done: ms(5),
        };
        let second = Paced {
            due: ms(2),
            sent: ms(5),
            done: ms(6),
        };
        assert_eq!(first.latency(), ms(5));
        assert_eq!(second.latency(), ms(4));
        assert_eq!(second.lag(), ms(3));
        assert_eq!(first.lag(), Duration::ZERO);
    }
}

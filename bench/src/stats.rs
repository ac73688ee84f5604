//! The benchmark's arithmetic: percentiles under the ten-samples rule,
//! medians, and deltas of the counters the runtime crates expose.

use kar::Mesh;
use kar_store::StoreStats;

/// The percentiles the benchmark may report, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// True when `n` samples leave at least [`MIN_BEYOND`] of them beyond
/// percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9
}

/// The highest percentile of the ladder that `n` samples support, if any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| supports(n, p))
}

/// Nearest-rank percentile `p` of `sorted` (ascending). `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// A sample set of durations in nanoseconds, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` in microseconds (0 when empty). Whether
    /// the count supports `p` is for the caller to report, with
    /// [`supports`].
    pub fn us(&self, p: f64) -> f64 {
        percentile(&self.sorted, p).map_or(0.0, |ns| ns as f64 / 1e3)
    }
}

/// Snapshot of every counter the runtime exposes that the per-layer
/// metrics divide, summed over all components of a mesh (dead ones
/// included, so totals never go backwards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Placement-cache hits.
    pub placement_hits: u64,
    /// Admissions that skipped placement resolution (slot stamp).
    pub placement_slot_hits: u64,
    /// Placement lookups that went to the store.
    pub placement_misses: u64,
    /// Requests enqueued to request batchers.
    pub requests_batched: u64,
    /// Batched request appends performed.
    pub request_appends: u64,
    /// Completions enqueued to response batchers.
    pub responses_batched: u64,
    /// Batched response appends performed.
    pub response_appends: u64,
    /// Continuation parks.
    pub parks: u64,
    /// Records ever appended to the mesh topic (sum of end offsets).
    pub records: u64,
    /// Store counters.
    pub store: StoreStats,
}

/// Name of the topic every mesh component's home partitions live in.
pub const MESH_TOPIC: &str = "kar";

impl Counters {
    /// Reads the counters of `mesh`.
    pub fn read(mesh: &Mesh) -> Self {
        let mut c = Counters {
            store: mesh.store().stats(),
            ..Counters::default()
        };
        for id in mesh.all_components() {
            if let Some(p) = mesh.placement_counters(id) {
                c.placement_hits += p.hits;
                c.placement_slot_hits += p.slot_hits;
                c.placement_misses += p.misses;
            }
            let (enqueued, appends) = mesh.request_batch_stats(id).unwrap_or_default();
            c.requests_batched += enqueued;
            c.request_appends += appends;
            let (enqueued, appends) = mesh.response_batch_stats(id).unwrap_or_default();
            c.responses_batched += enqueued;
            c.response_appends += appends;
            c.parks += mesh.continuation_parks(id).unwrap_or_default();
        }
        let broker = mesh.broker();
        c.records = (0..broker.partition_count(MESH_TOPIC))
            .map(|p| broker.end_offset(MESH_TOPIC, p))
            .sum();
        c
    }

    /// The counts accumulated since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if a counter went backwards, which would mean `earlier` was
    /// read from another mesh.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |now: u64, then: u64| {
            now.checked_sub(then)
                .expect("runtime counters are monotonic")
        };
        Counters {
            placement_hits: d(self.placement_hits, earlier.placement_hits),
            placement_slot_hits: d(self.placement_slot_hits, earlier.placement_slot_hits),
            placement_misses: d(self.placement_misses, earlier.placement_misses),
            requests_batched: d(self.requests_batched, earlier.requests_batched),
            request_appends: d(self.request_appends, earlier.request_appends),
            responses_batched: d(self.responses_batched, earlier.responses_batched),
            response_appends: d(self.response_appends, earlier.response_appends),
            parks: d(self.parks, earlier.parks),
            records: d(self.records, earlier.records),
            store: self.store.since(&earlier.store),
        }
    }

    /// Share of placement lookups answered without the store.
    pub fn placement_hit_ratio(&self) -> f64 {
        let hits = self.placement_hits + self.placement_slot_hits;
        ratio(hits, hits + self.placement_misses)
    }

    /// Mean requests per batched request append.
    pub fn request_batch_mean(&self) -> f64 {
        ratio(self.requests_batched, self.request_appends)
    }

    /// Mean completions per batched response append.
    pub fn response_batch_mean(&self) -> f64 {
        ratio(self.responses_batched, self.response_appends)
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`
/// (0 where the kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whole-machine CPU time counters from `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Ticks in every state.
    pub total: u64,
    /// Ticks the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
}

impl CpuTicks {
    /// Share of the ticks since `earlier` that were stolen.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        ratio(
            self.steal.saturating_sub(earlier.steal),
            self.total.saturating_sub(earlier.total),
        )
    }
}

/// Reads the machine-wide CPU counters (`None` where `/proc/stat` is not
/// available).
pub fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<CpuTicks> {
    let fields: Vec<u64> = line
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal: *fields.get(7)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ten_beyond_rule_picks_the_highest_supported_percentile() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100_000), Some(99.99));
        assert!(supports(1_000, 99.0));
        assert!(!supports(999, 99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50));
        assert_eq!(percentile(&sorted, 99.0), Some(99));
        assert_eq!(percentile(&sorted, 100.0), Some(100));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn samples_sort_and_convert_to_microseconds() {
        let samples = Samples::new((1..=1_000).rev().map(|i| i * 1_000).collect());
        assert_eq!(samples.len(), 1_000);
        assert_eq!(samples.us(50.0), 500.0);
        assert_eq!(samples.us(99.0), 990.0);
        assert_eq!(Samples::default().us(50.0), 0.0);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn counter_deltas_and_their_ratios() {
        let before = Counters {
            placement_hits: 10,
            placement_slot_hits: 5,
            placement_misses: 5,
            requests_batched: 8,
            request_appends: 4,
            responses_batched: 3,
            response_appends: 3,
            parks: 1,
            records: 100,
            store: StoreStats {
                round_trips: 7,
                pipeline_flushes: 2,
                pipeline_ops: 4,
                ..StoreStats::default()
            },
        };
        let after = Counters {
            placement_hits: 40,
            placement_slot_hits: 65,
            placement_misses: 5,
            requests_batched: 28,
            request_appends: 9,
            responses_batched: 13,
            response_appends: 8,
            parks: 11,
            records: 160,
            store: StoreStats {
                round_trips: 17,
                pipeline_flushes: 6,
                pipeline_ops: 16,
                ..StoreStats::default()
            },
        };
        let d = after.since(&before);
        assert_eq!(d.placement_hit_ratio(), 1.0);
        assert_eq!(d.request_batch_mean(), 4.0);
        assert_eq!(d.response_batch_mean(), 2.0);
        assert_eq!(d.parks, 10);
        assert_eq!(d.records, 60);
        assert_eq!(d.store.round_trips, 10);
        assert_eq!(d.store.mean_pipeline_batch(), 3.0);
        assert_eq!(Counters::default().placement_hit_ratio(), 0.0);
    }

    #[test]
    fn steal_share_from_proc_stat() {
        let before = parse_cpu_line("cpu  100 0 20 800 5 0 1 10 0 0").unwrap();
        let after = parse_cpu_line("cpu  150 0 30 830 5 0 1 20 0 0").unwrap();
        assert_eq!(before.total, 936);
        assert_eq!(after.steal_share_since(&before), 0.1);
        assert_eq!(parse_cpu_line("cpu0 1 2 3"), None);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn a_counter_going_backwards_is_a_bug() {
        let later = Counters {
            parks: 2,
            ..Counters::default()
        };
        let _ = Counters::default().since(&later);
    }
}

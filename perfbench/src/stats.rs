//! Sample statistics, metric naming and failure accounting.

use lnuca_sim::RunResult;

/// Percentiles considered for the tail figure, highest last.
const TAIL_CANDIDATES: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot be the reported figure.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank rank (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps float error in `p * n` from bumping an exact rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// `p99`, `p99.9`: the percentile's conventional short name.
#[must_use]
pub fn percentile_name(p: f64) -> String {
    let name = format!("{:.1}", p * 100.0);
    format!("p{}", name.trim_end_matches(".0"))
}

/// The highest percentile of [`TAIL_CANDIDATES`] that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest-rank position.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= rank(p, n) + TAIL_MIN_BEYOND)
}

/// A timing summary: median, sample count and the supported tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with enough samples
    /// beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises a non-empty sample set.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            median: median(&sorted),
            tail: tail_percentile(n).map(|p| (p, sorted[rank(p, n) - 1])),
        }
    }

    /// `median 1.23 ms, n=1000`: for rates, whose upper tail is the good
    /// side and so no tail to report.
    #[must_use]
    pub fn describe_rate(&self, unit: &str) -> String {
        format!("median {:.4} {unit}, n={}", self.median, self.n)
    }

    /// `median 1.23 p99 4.56 n=1000`, with the unit after each figure.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{} {v:.4} {unit}", percentile_name(p)),
            None => format!(
                "no tail (fewer than {} samples beyond p90)",
                TAIL_MIN_BEYOND
            ),
        };
        format!("median {:.4} {unit}, {tail}, n={}", self.median, self.n)
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit and
/// holds at most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let starts_well = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_well
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every simulated statistic of `results`: FNV-1a over their
/// `Debug` rendering, which prints every field and every float exactly.
/// Host-dependent figures live outside [`RunResult`], so a change that only
/// alters speed leaves the digest unchanged.
#[must_use]
pub fn result_digest(results: &[RunResult]) -> u64 {
    fnv1a(format!("{results:?}").as_bytes())
}

/// Attempted and failed operations of one benchmark run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one HTTP response: a status outside 2xx, a refusal (429) or
    /// a draining daemon (503) included, or a body that failed its check
    /// is a failure.
    pub fn record_response(&mut self, status: u16, content_ok: bool) {
        self.record((200..300).contains(&status) && content_ok);
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(percentile_name(0.99), "p99");
        assert_eq!(percentile_name(0.999), "p99.9");
    }

    #[test]
    fn summary_reads_the_nearest_rank_value() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        let beyond = samples.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, TAIL_MIN_BEYOND);
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).tail, None);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for name in ["sim_minstr_per_s", "fabric.hit_ratio", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(name), "{name}");
        }
        for name in [
            "",
            "_lead",
            ".lead",
            "with space",
            "slash/no",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(name), "{name}");
        }
        for (name, _) in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
        }
    }

    #[test]
    fn fail_ratio_counts_refusals_and_drains_as_failures() {
        let mut tally = Tally::default();
        for status in [200, 429, 503, 200, 202, 400] {
            tally.record_response(status, true);
        }
        tally.record_response(200, false);
        tally.record_response(429, false);
        assert_eq!(
            tally,
            Tally {
                attempted: 8,
                failed: 5
            }
        );
        assert_eq!(tally.fail_ratio(), 5.0 / 8.0);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn result_digest_is_stable_across_runs_and_tracks_the_seed() {
        use lnuca_sim::configs::{self, HierarchyKind};
        use lnuca_sim::System;
        let spec = HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)).to_spec();
        let profile = &lnuca_workloads::suites::spec_int_like()[0];
        let run = |seed| vec![System::run_spec(&spec, profile, 3_000, seed).expect("valid spec")];
        assert_eq!(result_digest(&run(5)), result_digest(&run(5)));
        assert_ne!(result_digest(&run(5)), result_digest(&run(6)));
    }
}

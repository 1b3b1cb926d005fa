//! The benchmark's own arithmetic: percentiles, failure accounting,
//! interval unions for self time, and metric-name validation. Kept free of
//! engine types so the unit tests below pin it down exactly.

/// Exact ceil-rank quantile of a sample (no interpolation): the smallest
/// value with at least `q · n` samples at or below it. `None` when empty.
pub fn ceil_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the ceil-rank position of `q` — a percentile is
/// reported only when at least [`MIN_BEYOND`] of them exist.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median by the same ceil-rank rule.
pub fn median(samples: &[f64]) -> Option<f64> {
    ceil_rank(samples, 0.5)
}

/// Operations attempted and the subset that failed: an error, a refusal
/// (`QueueFull`, `AdmissionDenied`, `Overloaded`) or a wrong output.
/// Wrong outputs are also counted on their own, because they make the run
/// exit non-zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refused: u64,
    pub wrong: u64,
}

impl Tally {
    /// Records one operation with its outcome.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => {}
            Outcome::Error => self.errors += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.wrong
    }

    /// Failed ÷ attempted; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }
}

/// How one attempted operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Error,
    Refused,
    Wrong,
}

/// Length of `[lo, hi)` covered by the union of `children`, each clipped
/// to the parent interval first. Overlapping children count once.
pub fn covered(lo: u64, hi: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A metric name: one or more of `[A-Za-z0-9_.-]`, at most 64 long,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_rank_picks_exact_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(ceil_rank(&s, 0.5), Some(50.0));
        assert_eq!(ceil_rank(&s, 0.95), Some(95.0));
        assert_eq!(ceil_rank(&s, 0.951), Some(96.0));
        assert_eq!(ceil_rank(&s, 0.0), Some(1.0));
        assert_eq!(ceil_rank(&s, 1.0), Some(100.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(ceil_rank(&rev, 0.95), Some(95.0));
        assert_eq!(ceil_rank(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(200, 0.95), 10);
        assert_eq!(beyond(199, 0.95), 9);
        assert_eq!(beyond(100, 0.5), 50);
        assert_eq!(beyond(0, 0.95), 0);
        assert!(beyond(200, 0.95) >= MIN_BEYOND);
    }

    #[test]
    fn covered_counts_overlaps_once() {
        // Two overlapping children and one disjoint: [2,6) ∪ [4,8) ∪ [9,10).
        assert_eq!(covered(0, 10, &[(2, 6), (4, 8), (9, 10)]), 7);
        // Nested children.
        assert_eq!(covered(0, 10, &[(1, 9), (2, 3), (4, 5)]), 8);
        // Children outside the parent are clipped.
        assert_eq!(covered(5, 10, &[(0, 7), (9, 20)]), 3);
        // Touching intervals merge without double counting.
        assert_eq!(covered(0, 10, &[(0, 5), (5, 10), (0, 10)]), 10);
        assert_eq!(covered(0, 10, &[]), 0);
        assert_eq!(covered(0, 10, &[(12, 15)]), 0);
    }

    #[test]
    fn tally_counts_every_kind_of_failure() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Error,
            Outcome::Refused,
            Outcome::Wrong,
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 3);
        assert_eq!(t.failed_frac(), 3.0 / 8.0);
        let mut total = Tally::default();
        assert_eq!(total.failed_frac(), 0.0);
        total.merge(t);
        total.merge(t);
        assert_eq!(total.attempted, 16);
        assert_eq!(total.wrong, 2);
        assert_eq!(total.failed_frac(), 6.0 / 16.0);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "runtime.read_rtt_p50_us",
            "ref.seq_pr_s",
            "a-b.c_1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "lat(ms)", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}

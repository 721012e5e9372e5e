//! The harness's own statistics: medians, the percentile rule, and the
//! failure tally.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Samples that must lie strictly above a reported percentile: a tail
/// figure resting on fewer is noise, so the run is rejected instead.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// A nearest-rank percentile of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile's rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `xs`: the value at
/// rank `ceil(p * n)`. Fails unless at least [`MIN_SAMPLES_BEYOND`]
/// samples rank above it — for p90 that means at least 100 samples.
pub fn percentile(xs: &[f64], p: f64) -> Result<Percentile, String> {
    assert!(p > 0.0 && p < 1.0, "percentile rank must lie in (0, 1)");
    let n = xs.len();
    let rank = (p * n as f64).ceil() as usize;
    let beyond = n - rank.min(n);
    if rank == 0 || beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} samples beyond it; at least {MIN_SAMPLES_BEYOND} \
             are required",
            p * 100.0
        ));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(Percentile { value: v[rank - 1], beyond })
}

/// Outcome counts of a run's ops. Every op attempted lands in exactly
/// one bucket; all but `ok` count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops that completed and passed their checks.
    pub ok: u64,
    /// Ops the server answered with `ok:false`.
    pub refused: u64,
    /// Ops whose exchange failed (connection, framing, malformed reply).
    pub errored: u64,
    /// Ops that completed but whose output failed a correctness check.
    pub mismatched: u64,
}

impl Tally {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.refused + self.errored + self.mismatched
    }

    /// Ops that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.mismatched
    }

    /// Failed ops per attempted op (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.refused += other.refused;
        self.errored += other.errored;
        self.mismatched += other.mismatched;
    }

    /// Moves one op from `ok` to `mismatched`: its output failed a
    /// check made after the timed region.
    pub fn demote_to_mismatch(&mut self) {
        self.ok = self.ok.saturating_sub(1);
        self.mismatched += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&hundred, 0.9).unwrap();
        assert_eq!(p, Percentile { value: 90.0, beyond: 10 });
        // One sample short: only nine lie above rank ceil(0.9 * 99) = 90.
        let err = percentile(&hundred[..99], 0.9).unwrap_err();
        assert!(err.contains("9 samples beyond"), "{err}");
        assert!(percentile(&[], 0.9).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&xs, 0.9).unwrap();
        xs.sort_by(f64::total_cmp);
        assert_eq!(percentile(&xs, 0.9).unwrap(), a);
        assert_eq!(a.value, 179.0);
        assert_eq!(a.beyond, 20);
    }

    #[test]
    fn median_of_twenty_passes_the_rule_for_p50() {
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5).unwrap().beyond, 10);
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn failed_frac_counts_every_failure_kind_against_attempts() {
        let t = Tally { ok: 7, refused: 1, errored: 1, mismatched: 1 };
        assert_eq!(t.attempted(), 10);
        assert_eq!(t.failed(), 3);
        assert!((t.failed_frac() - 0.3).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);

        let mut merged = Tally { ok: 5, ..Tally::default() };
        merged.merge(t);
        merged.demote_to_mismatch();
        assert_eq!(merged, Tally { ok: 11, refused: 1, errored: 1, mismatched: 2 });
        assert_eq!(merged.attempted(), 15);
        assert!((merged.failed_frac() - 4.0 / 15.0).abs() < 1e-12);
    }
}

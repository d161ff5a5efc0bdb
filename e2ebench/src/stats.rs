//! Sample statistics: percentiles, a bounded reservoir, and the
//! attempted/failed tally every check feeds.

/// Percentiles the benchmark may report, lowest first.
const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps float error in `p * n` (99.9 * 10_000 is not
    // exactly 999_000) from rounding an exact rank up by one.
    let k = (p * n as f64 / 100.0 - 1e-6).ceil() as usize;
    k.clamp(1, n) - 1
}

/// The highest of 50, 90, 99, 99.9 and 99.99 that has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .rev()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (NaN when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// SplitMix64: the seeded generator behind every random choice the
/// benchmark makes, so one seed always gives the same inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A uniform random sample of at most `cap` values from a stream of
/// unknown length (Algorithm R). Capping the sample fixes which tail
/// percentile it supports: `cap = 999` supports p90 but not p99, and
/// `cap = 9_999` supports p99 but not p99.9.
#[derive(Clone, Debug)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    samples: Vec<f64>,
    rng: SplitMix,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::with_capacity(cap),
            rng: SplitMix::new(seed),
        }
    }

    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < self.cap {
                self.samples[slot] = value;
            }
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Operations attempted and failed. Every output check goes through
/// [`Tally::check`], so a wrong answer is counted, reported, and the run
/// carries on instead of aborting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is also reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_ratio(&self) -> f64 {
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
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert_eq!(highest_percentile(10_000_000), Some(99.99));
    }

    #[test]
    fn reported_percentile_has_ten_samples_beyond_it() {
        for n in [100usize, 250, 999, 1_000, 5_000, 9_999] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = highest_percentile(n).expect("enough samples");
            let value = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > value).count();
            assert!(beyond >= MIN_BEYOND, "n={n} p={p}: {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 99.0), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reservoir_caps_and_is_seeded() {
        let fill = |seed| {
            let mut r = Reservoir::new(999, seed);
            for i in 0..50_000 {
                r.push(f64::from(i));
            }
            r.samples().to_vec()
        };
        let a = fill(7);
        assert_eq!(a.len(), 999);
        assert_eq!(a, fill(7));
        assert_ne!(a, fill(8));
        assert_eq!(highest_percentile(a.len()), Some(90.0));
        // A uniform sample of 0..50_000 has its median near 25_000.
        assert!((median(&a) - 25_000.0).abs() < 2_500.0);
    }

    #[test]
    fn failed_ratio_counts_every_check() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_ratio(), 0.0);
        for i in 0..8 {
            tally.check(i % 4 != 0, || format!("operation {i}"));
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 8,
                failed: 2
            }
        );
        assert_eq!(tally.failed_ratio(), 0.25);

        let mut other = Tally::default();
        other.check(true, String::new);
        other.check(false, || "late failure".into());
        tally.absorb(other);
        assert_eq!(
            tally,
            Tally {
                attempted: 10,
                failed: 3
            }
        );
        assert_eq!(tally.failed_ratio(), 0.3);
    }
}

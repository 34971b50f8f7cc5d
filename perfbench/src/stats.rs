//! Sample summaries: nearest-rank percentiles, and the tail rule — the
//! highest percentile that still has at least ten samples beyond it.

/// Percentiles the tail rule considers, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples beyond a reported percentile that make it meaningful.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// epsilon keeps `p * n / 100` that is whole in exact arithmetic from
/// rounding up a rank.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples held per set; beyond this the set keeps a uniform random
/// subset (reservoir sampling). Every large set fills up within the
/// first seconds of a run, so the benchmark's own memory is the same
/// from run to run and `peak_rss_mib` does not grow with how many
/// requests a run completed.
const MAX_HELD: usize = 1 << 14;

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
    /// Measurements seen, held or not.
    seen: u64,
    total: f64,
    rng: u64,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        self.total += v;
        if self.values.len() < MAX_HELD {
            self.values.push(v);
        } else {
            // Algorithm R: keep each of the `seen` values with equal
            // probability.
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let j = (z ^ (z >> 31)) % self.seen;
            if (j as usize) < MAX_HELD {
                self.values[j as usize] = v;
            }
        }
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        for v in &other.values {
            self.push(*v);
        }
    }

    /// Measurements seen.
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.total / self.seen as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p` in `(0, 100]`; 0 for no samples.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        self.values[rank(p, self.values.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean of the samples between percentiles `lo` and `hi`
    /// (nearest ranks, inclusive); 0 for no samples.
    pub fn trimmed_mean(&mut self, lo: f64, hi: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        let kept = &self.values[rank(lo, n) - 1..rank(hi, n)];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// Samples strictly after the nearest-rank position of `p`.
    fn beyond(&self, p: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        n - rank(p, n)
    }

    /// The highest candidate percentile with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value,
    /// sample count)`; `None` when even the median has too few.
    pub fn tail(&mut self) -> Option<(f64, f64, usize)> {
        let n = self.values.len();
        let p = TAIL_CANDIDATES
            .into_iter()
            .find(|&p| self.beyond(p) >= TAIL_MIN_BEYOND)?;
        Some((p, self.percentile(p), n))
    }

    /// One-line summary: median, the tail percentile, sample count.
    pub fn describe(&mut self, unit: &str) -> String {
        let n = self.len();
        let held = self.values.len();
        let med = self.median();
        let p90 = self.percentile(90.0);
        let head = format!("p50={med:.3}{unit} p90={p90:.3}{unit}");
        match self.tail() {
            Some((p, v, _)) if p > 90.0 => format!("{head} p{p}={v:.3}{unit} n={n} held={held}"),
            Some((p, _, _)) => {
                format!("{head} n={n} (p{p} is the highest with {TAIL_MIN_BEYOND} beyond it)")
            }
            None => format!("{head} n={n} (no percentile has {TAIL_MIN_BEYOND} beyond it)"),
        }
    }
}

/// Full blocks a [`Blocked`] series needs before its block tail counts.
const MIN_BLOCKS: usize = 3;

/// A series whose p90 is read block by block: the p90 of each run of
/// `block` consecutive samples, then the median of those. On a shared
/// host a burst of stolen CPU lasts a few blocks; it moves their p90s
/// but hardly the median, so the figure is the tail of a typical
/// stretch of the run rather than of its worst one.
#[derive(Debug, Clone, Default)]
pub struct Blocked {
    /// Every sample, for medians and the report.
    pub all: Samples,
    block: usize,
    current: Samples,
    block_p90s: Samples,
}

impl Blocked {
    pub fn new(block: usize) -> Blocked {
        Blocked {
            block,
            ..Blocked::default()
        }
    }

    pub fn push(&mut self, v: f64) {
        self.all.push(v);
        if self.block == 0 {
            return;
        }
        self.current.push(v);
        if self.current.len() == self.block {
            let p90 = self.current.percentile(90.0);
            self.block_p90s.push(p90);
            self.current = Samples::new();
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        for v in &other.values {
            self.push(*v);
        }
    }

    /// Median of the full blocks' p90s; the p90 of the whole series
    /// while there are fewer than [`MIN_BLOCKS`] of them.
    pub fn p90(&mut self) -> f64 {
        if self.block_p90s.len() >= MIN_BLOCKS {
            self.block_p90s.median()
        } else {
            self.all.percentile(90.0)
        }
    }

    /// Full blocks so far.
    pub fn blocks(&self) -> usize {
        self.block_p90s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse to exercise sorting.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = ramp(100);
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves 10 beyond, p99 only 1.
        let mut s = ramp(100);
        assert_eq!(s.tail(), Some((90.0, 90.0, 100)));
        // 1000 samples: p99 leaves exactly 10 beyond.
        let mut s = ramp(1000);
        assert_eq!(s.tail(), Some((99.0, 990.0, 1000)));
        // 999 samples: p99 leaves 9 beyond, so p90 is reported.
        let mut s = ramp(999);
        assert_eq!(s.tail().map(|t| t.0), Some(90.0));
        // 10k samples: p99.9 leaves exactly 10 beyond.
        let mut s = ramp(10_000);
        assert_eq!(s.tail(), Some((99.9, 9_990.0, 10_000)));
        // Beyond what a set holds, the rule counts held samples: 100k
        // samples hold 16k, which cannot reach p99.99.
        let mut s = ramp(100_000);
        assert_eq!(s.tail().map(|t| (t.0, t.2)), Some((99.9, MAX_HELD)));
    }

    #[test]
    fn reservoir_bounds_memory_and_keeps_the_distribution() {
        let mut s = Samples::new();
        let n = 3 * MAX_HELD;
        for i in 0..n {
            s.push((i % 1024) as f64);
        }
        assert_eq!(s.len(), n);
        assert_eq!(s.values.len(), MAX_HELD);
        assert!((s.mean() - 511.5).abs() < 1e-9);
        let med = s.median();
        assert!((490.0..=533.0).contains(&med), "median {med}");
    }

    #[test]
    fn trimmed_mean_keeps_the_middle() {
        let mut s = ramp(10);
        s.push(1e6);
        // 11 samples: p10 is rank 2, p90 rank 10, so 2..=10 are kept.
        assert_eq!(s.trimmed_mean(10.0, 90.0), 6.0);
        assert_eq!(ramp(100).trimmed_mean(0.0, 100.0), 50.5);
        assert_eq!(Samples::new().trimmed_mean(10.0, 90.0), 0.0);
    }

    #[test]
    fn block_tail_ignores_a_stall_in_one_block() {
        // Four blocks of 1..=10; the third block stalls at 1000.
        let mut b = Blocked::new(10);
        for block in 0..4 {
            for i in 1..=10 {
                b.push(if block == 2 { 1000.0 } else { f64::from(i) });
            }
        }
        assert_eq!(b.blocks(), 4);
        assert_eq!(b.p90(), 9.0);
        assert_eq!(b.all.percentile(90.0), 1000.0);
        // Too few blocks: the whole series' p90.
        let mut b = Blocked::new(10);
        for i in 1..=25 {
            b.push(f64::from(i));
        }
        assert_eq!(b.p90(), 23.0);
    }

    #[test]
    fn tail_needs_ten_beyond_the_median() {
        let mut s = ramp(19);
        assert_eq!(s.tail(), None);
        let mut s = ramp(20);
        assert_eq!(s.tail(), Some((50.0, 10.0, 20)));
        assert_eq!(Samples::new().tail(), None);
    }
}

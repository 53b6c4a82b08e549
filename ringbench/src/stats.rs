//! Sample summaries and result digests.

use debruijn_core::EmbedStats;

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// How many samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    // The epsilon keeps products such as 99.99% of 100 000 from rounding
    // up past an exact integer rank.
    let x = pct * n as f64 / 100.0;
    ((x - 1e-9 * x.max(1.0)).ceil() as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// A sorted sample set.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` into a distribution.
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    #[must_use]
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `pct` (0 when there are no samples).
    #[must_use]
    pub fn pct(&self, pct: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank(pct, self.sorted.len()) - 1]
    }

    /// The median.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.pct(50.0)
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`.
    #[must_use]
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail_percentile(self.n()).map(|p| (p, self.pct(p)))
    }

    /// One human-readable line: median, p90, the reportable tail and the
    /// sample count.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail() {
            Some((p, v)) if p > 90.0 => format!(", p{p} {v:.4} {unit}"),
            Some(_) => String::new(),
            None => String::from(", no tail (< 10 samples beyond p50)"),
        };
        format!(
            "p50 {:.4} {unit}, p90 {:.4} {unit}{tail} (n={})",
            self.p50(),
            self.pct(90.0),
            self.n()
        )
    }
}

/// Medians over windows of a closed-loop run: each window is a run of
/// consecutive operations covering about [`WINDOW_NS`] of their latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Windowed {
    /// Median of the windows' operations per second of latency.
    pub ops_per_s: f64,
    /// Median of the windows' latency medians.
    pub p50: f64,
    /// Median of the windows' latency p90s.
    pub p90: f64,
    /// Number of windows.
    pub windows: usize,
}

/// Latency each window of [`windowed`] covers, ns.
pub const WINDOW_NS: f64 = 1e9;

/// Splits `latency_ns` (consecutive operations of a closed loop, so their
/// sum is the measured time) into windows of at least `window_ns` and
/// returns the medians of the per-window figures, in the input's unit. A
/// trailing window shorter than half of `window_ns` joins the one before.
/// A host slow phase that covers fewer than half of the windows moves
/// none of the medians.
#[must_use]
pub fn windowed(latency_ns: &[f64], window_ns: f64) -> Windowed {
    let mut bounds = vec![0];
    let mut sum = 0.0;
    for (i, &t) in latency_ns.iter().enumerate() {
        sum += t;
        if sum >= window_ns {
            bounds.push(i + 1);
            sum = 0.0;
        }
    }
    let n = latency_ns.len();
    let last = bounds.len() - 1;
    if bounds[last] != n {
        if sum >= window_ns / 2.0 || last == 0 {
            bounds.push(n);
        } else {
            bounds[last] = n;
        }
    }
    let (mut ops, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
    for w in bounds.windows(2) {
        let part = &latency_ns[w[0]..w[1]];
        let d = Dist::new(part.to_vec());
        ops.push(part.len() as f64 / (part.iter().sum::<f64>() / 1e9));
        p50.push(d.p50());
        p90.push(d.pct(90.0));
    }
    Windowed {
        ops_per_s: median(&ops),
        p50: median(&p50),
        p90: median(&p90),
        windows: ops.len(),
    }
}

/// The median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    Dist::new(xs.to_vec()).p50()
}

/// FNV-1a over the values a workload produces: a result fingerprint that
/// repeats exactly for one seed.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one value into the digest.
    pub fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a node sequence (a ring) into the digest.
    pub fn add_all(&mut self, xs: &[usize]) {
        self.add(xs.len() as u64);
        for &x in xs {
            self.add(x as u64);
        }
    }

    /// Folds an embedding's scalar results into the digest.
    pub fn add_stats(&mut self, s: &EmbedStats) {
        for x in [
            s.root,
            s.component_size,
            s.eccentricity,
            s.faulty_necklaces,
            s.removed_nodes,
        ] {
            self.add(x as u64);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        // The claim itself: at least ten samples strictly above the rank.
        for n in [20, 57, 100, 333, 1000, 4321, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_counts() {
        let d = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.n(), 1000);
        assert_eq!(d.p50(), 500.0);
        assert_eq!(d.pct(90.0), 900.0);
        assert_eq!(d.tail(), Some((99.0, 990.0)));
        assert!(d.describe("ms").ends_with("(n=1000)"));
        assert_eq!(Dist::default().p50(), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_medians_ignore_a_minority_of_slow_windows() {
        // Five windows of 1 s; the ops of the second take twice as long.
        let mut lat = vec![10e6; 450];
        lat[100..150].fill(20e6);
        let w = windowed(&lat, 1e9);
        assert_eq!(w.windows, 5);
        assert_eq!((w.ops_per_s, w.p50, w.p90), (100.0, 10e6, 10e6));
        // A short tail joins the last window; a long one is its own.
        assert_eq!(windowed(&vec![10e6; 540], 1e9).windows, 5);
        assert_eq!(windowed(&vec![10e6; 560], 1e9).windows, 6);
        // A run shorter than one window is one window.
        assert_eq!(windowed(&[10e6; 7], 1e9).windows, 1);
        assert_eq!(windowed(&[], 1e9).windows, 0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add_all(&[1, 2, 3]);
        b.add_all(&[1, 3, 2]);
        assert_ne!(a.value(), b.value());
    }
}

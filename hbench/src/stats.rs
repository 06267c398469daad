//! Order statistics and fingerprints shared by every workload.

use std::fmt;
use std::ops::Range;

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p`-th percentile among `n >= 1` samples. The
/// epsilon keeps `99.9 % of 10 000` at 9 990 despite float rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sort a sample ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn pick_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Half-overlapping windows of `len` consecutive samples (at most all of
/// them), as index ranges into a sample kept in completion order. The host
/// is shared and its neighbours only ever add time, so every timing is taken
/// per window and the quietest window's value is reported: a burst of
/// foreign load then costs the windows it touches, not the run.
pub fn windows(n: usize, len: usize) -> Vec<Range<usize>> {
    let len = len.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let step = (len / 2).max(1);
    let mut out: Vec<Range<usize>> = (0..=n - len)
        .step_by(step)
        .map(|start| start..start + len)
        .collect();
    if out.last().is_some_and(|w| w.end < n) {
        out.push(n - len..n); // the run's end is a window too
    }
    out
}

/// The lowest of `f`'s values over the windows that have one.
pub fn lowest(windows: &[Range<usize>], f: impl Fn(Range<usize>) -> Option<f64>) -> Option<f64> {
    windows
        .iter()
        .filter_map(|w| f(w.clone()))
        .min_by(f64::total_cmp)
}

/// Median of each class's values, averaged over the classes: the centre of
/// a sample whose classes differ in cost, which a pooled median (sitting
/// between two modes) would report unsteadily.
pub fn mean_of_class_medians(samples: &[(usize, f64)]) -> f64 {
    let mut classes: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(class, value) in samples {
        classes.entry(class).or_default().push(value);
    }
    assert!(!classes.is_empty(), "no samples");
    classes.values().map(|v| median(v)).sum::<f64>() / classes.len() as f64
}

/// `f` of each class's values, and the median of that over the classes: a
/// class that is an outlier as a whole (a world the program treats
/// differently) then moves nothing.
pub fn median_over_classes(samples: &[(usize, f64)], f: &dyn Fn(&[f64]) -> f64) -> f64 {
    let mut classes: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(class, value) in samples {
        classes.entry(class).or_default().push(value);
    }
    assert!(!classes.is_empty(), "no samples");
    median(&classes.values().map(|v| f(v)).collect::<Vec<f64>>())
}

/// A fixed pseudo-random sequence (Knuth's 64-bit LCG): the benchmark's own
/// draws (pair samples, think times) are the same on every commit and host.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Default for Lcg {
    fn default() -> Self {
        Lcg(0x9e37_79b9_7f4a_7c15)
    }
}

impl Lcg {
    /// The next draw, uniform below `n` (`n = 0` draws 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n.max(1)
    }
}

/// FNV-1a, fed either bytes or `fmt` output, so a large table's `Debug`
/// rendering can be fingerprinted without materialising the string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.0
}

/// "`n` ops, supports p95": the sample count with the highest percentile it
/// can back, for the notes that accompany every latency.
pub fn support(n: usize) -> String {
    match pick_percentile(n) {
        Some(p) => format!("{n} ops, enough for p{p}"),
        None => format!("{n} ops, too few for any percentile by the ten-beyond rule"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        assert_eq!(pick_percentile(0), None);
        assert_eq!(pick_percentile(19), None); // median leaves 9 beyond
        assert_eq!(pick_percentile(20), Some(50.0));
        assert_eq!(pick_percentile(40), Some(75.0));
        assert_eq!(pick_percentile(100), Some(90.0));
        assert_eq!(pick_percentile(200), Some(95.0));
        assert_eq!(pick_percentile(999), Some(95.0)); // p99 leaves 9
        assert_eq!(pick_percentile(1000), Some(99.0));
        assert_eq!(pick_percentile(10_000), Some(99.9));
        for n in 20..2000 {
            let p = pick_percentile(n).unwrap();
            assert!(samples_beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn windows_half_overlap_and_cover_the_end() {
        assert_eq!(windows(12, 4), vec![0..4, 2..6, 4..8, 6..10, 8..12]);
        assert_eq!(windows(13, 4).last(), Some(&(9..13)));
        assert_eq!(windows(5, 4), vec![0..4, 1..5]);
        assert_eq!(windows(3, 4), vec![0..3]); // never longer than the sample
        assert!(windows(0, 4).is_empty());
    }

    #[test]
    fn the_quietest_window_ignores_a_burst_of_foreign_load() {
        // 600 samples of 1 ms; foreign load triples 400 of them in the middle.
        let mut v = vec![1.0; 600];
        for x in &mut v[100..500] {
            *x = 3.0;
        }
        assert_eq!(median(&v), 3.0);
        let w = windows(v.len(), 100);
        let quiet = lowest(&w, |r| Some(median(&v[r])));
        assert_eq!(quiet, Some(1.0));
        assert_eq!(lowest(&w, |_| None), None);
    }

    #[test]
    fn class_medians_do_not_jump_between_modes() {
        // Two classes, 1 ms and 10 ms: the pooled median is whichever class
        // has one sample more; the mean of class medians is 5.5 either way.
        let mut samples: Vec<(usize, f64)> = (0..10).map(|_| (0, 1.0)).collect();
        samples.extend((0..11).map(|_| (1, 10.0)));
        assert_eq!(mean_of_class_medians(&samples), 5.5);
        samples.extend([(0, 1.0), (0, 1.0)]);
        assert_eq!(mean_of_class_medians(&samples), 5.5);
        assert_eq!(mean_of_class_medians(&[(7, 3.0)]), 3.0);
    }

    #[test]
    fn an_outlier_class_moves_nothing() {
        // Three worlds, one of them twice as slow: the pooled median and p75
        // depend on it, the median over the worlds does not.
        let samples: Vec<(usize, f64)> = (0..30)
            .map(|i| {
                (
                    i % 3,
                    if i % 3 == 1 {
                        400.0
                    } else {
                        200.0 + (i / 3) as f64
                    },
                )
            })
            .collect();
        assert_eq!(median_over_classes(&samples, &median), 204.5);
        let p75 = |v: &[f64]| percentile(&sorted(v.to_vec()), 75.0);
        assert_eq!(median_over_classes(&samples, &p75), 207.0);
        assert_eq!(median_over_classes(&[(9, 1.0), (9, 3.0)], &median), 2.0);
    }

    #[test]
    fn fnv_streams_like_bytes() {
        use std::fmt::Write;
        let mut h = Fnv::default();
        write!(h, "{:?}", vec![1, 2, 3]).unwrap();
        assert_eq!(h.0, fnv(b"[1, 2, 3]"));
        assert_ne!(fnv(b"a"), fnv(b"b"));
    }
}
